// Package statestore is an in-memory stand-in for Zookeeper (§2: Nimbus
// "communicates and coordinates with Zookeeper to maintain a consistent
// list of active worker nodes and to detect failure in the membership").
// It provides a hierarchical key space and ephemeral nodes bound to
// sessions — the subset of the Zookeeper contract Nimbus needs. There are
// no watches: Nimbus reads membership by polling Children and
// ChildVersions.
//
// Every node carries a data version, Zookeeper's Stat.version: Create
// sets it to 0 and each successful Set adds 1. A node that is deleted and
// created again starts over at 0. Supervisors heartbeat by re-setting
// their presence node, so a heartbeat is a version bump and Nimbus can
// tell progress without reading the data.
//
// As in Zookeeper, ephemeral nodes cannot have children: a child would
// outlive the session that owns its parent.
package statestore

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Well-known errors, matchable with errors.Is.
var (
	// ErrNodeExists reports a Create on an existing path.
	ErrNodeExists = errors.New("node already exists")
	// ErrNoNode reports an operation on a missing path.
	ErrNoNode = errors.New("node does not exist")
	// ErrNoParent reports a Create whose parent path is missing.
	ErrNoParent = errors.New("parent node does not exist")
	// ErrNotEmpty reports a Delete on a node with children.
	ErrNotEmpty = errors.New("node has children")
	// ErrNoSession reports an operation with an expired or unknown
	// session.
	ErrNoSession = errors.New("session does not exist")
	// ErrBadPath reports a malformed path.
	ErrBadPath = errors.New("bad path")
	// ErrEphemeralParent reports a Create under an ephemeral node
	// (Zookeeper's NoChildrenForEphemerals).
	ErrEphemeralParent = errors.New("ephemeral nodes cannot have children")
)

// SessionID identifies a client session; ephemeral nodes die with it.
type SessionID uint64

type entry struct {
	data    []byte
	owner   SessionID // 0 = persistent
	version int64     // data version: 0 at Create, +1 per Set
}

// Store is the in-memory hierarchical state store. It is safe for
// concurrent use.
type Store struct {
	mu          sync.Mutex
	nodes       map[string]*entry
	sessions    map[SessionID]map[string]bool // session -> owned paths
	nextSession SessionID
}

// New returns a Store containing only the root node "/".
func New() *Store {
	return &Store{
		nodes:    map[string]*entry{"/": {}},
		sessions: make(map[SessionID]map[string]bool),
	}
}

// normalize validates and cleans a path.
func normalize(p string) (string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	clean := path.Clean(p)
	return clean, nil
}

// NewSession opens a session for ephemeral ownership.
func (s *Store) NewSession() SessionID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSession++
	id := s.nextSession
	s.sessions[id] = make(map[string]bool)
	return id
}

// ExpireSession deletes the session and every ephemeral node it owns.
func (s *Store) ExpireSession(id SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	owned, ok := s.sessions[id]
	if !ok {
		return ErrNoSession
	}
	delete(s.sessions, id)
	for p := range owned {
		delete(s.nodes, p)
	}
	return nil
}

// Create adds a node at data version 0. The parent must exist and must
// not be ephemeral. With a non-zero session the node is ephemeral and
// dies with the session.
func (s *Store) Create(p string, data []byte, session SessionID) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: /", ErrNodeExists)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if session != 0 {
		if _, ok := s.sessions[session]; !ok {
			return ErrNoSession
		}
	}
	if _, exists := s.nodes[p]; exists {
		return fmt.Errorf("%w: %s", ErrNodeExists, p)
	}
	parent := path.Dir(p)
	pe, ok := s.nodes[parent]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoParent, parent)
	}
	if pe.owner != 0 {
		return fmt.Errorf("%w: %s", ErrEphemeralParent, parent)
	}
	s.nodes[p] = &entry{data: append([]byte(nil), data...), owner: session}
	if session != 0 {
		s.sessions[session][p] = true
	}
	return nil
}

// Set replaces a node's data and bumps its data version.
func (s *Store) Set(p string, data []byte) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	// The buffer never escapes the lock (Get copies), so reuse it.
	e.data = append(e.data[:0], data...)
	e.version++
	return nil
}

// Get returns a copy of a node's data.
func (s *Store) Get(p string) ([]byte, error) {
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	return append([]byte(nil), e.data...), nil
}

// Exists reports whether a node exists.
func (s *Store) Exists(p string) bool {
	p, err := normalize(p)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.nodes[p]
	return ok
}

// Delete removes a childless node.
func (s *Store) Delete(p string) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	hasChild := false
	s.eachChildLocked(p, func(string, *entry) { hasChild = true })
	if hasChild {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	delete(s.nodes, p)
	if e.owner != 0 {
		if owned, ok := s.sessions[e.owner]; ok {
			delete(owned, p)
		}
	}
	return nil
}

// Children returns the names (not full paths) of a node's children,
// sorted.
func (s *Store) Children(p string) ([]string, error) {
	var out []string
	err := s.eachChild(p, func(name string, _ *entry) {
		out = append(out, name)
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// ChildVersions returns every direct child of p, by name, with its data
// version, read in one locked pass.
func (s *Store) ChildVersions(p string) (map[string]int64, error) {
	out := make(map[string]int64)
	err := s.eachChild(p, func(name string, e *entry) {
		out[name] = e.version
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachChild calls fn, under the lock, for every direct child of p.
func (s *Store) eachChild(p string, fn func(name string, e *entry)) error {
	p, err := normalize(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	s.eachChildLocked(p, fn)
	return nil
}

func (s *Store) eachChildLocked(p string, fn func(name string, e *entry)) {
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for candidate, e := range s.nodes {
		if candidate == p || !strings.HasPrefix(candidate, prefix) {
			continue
		}
		if rest := candidate[len(prefix):]; !strings.Contains(rest, "/") {
			fn(rest, e)
		}
	}
}
