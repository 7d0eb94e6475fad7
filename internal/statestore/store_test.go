package statestore

import (
	"errors"
	"maps"
	"testing"
	"testing/quick"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := New()
	if err := s.Create("/a", []byte("1"), 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := s.Get("/a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Set("/a", []byte("2")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, _ = s.Get("/a")
	if string(got) != "2" {
		t.Fatalf("after Set, Get = %q", got)
	}
	if !s.Exists("/a") {
		t.Error("Exists(/a) false")
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Exists("/a") {
		t.Error("Exists after delete")
	}
}

func TestErrors(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	tests := []struct {
		name string
		op   func() error
		want error
	}{
		{"duplicate create", func() error { return s.Create("/a", nil, 0) }, ErrNodeExists},
		{"create root", func() error { return s.Create("/", nil, 0) }, ErrNodeExists},
		{"missing parent", func() error { return s.Create("/x/y", nil, 0) }, ErrNoParent},
		{"get missing", func() error { _, err := s.Get("/nope"); return err }, ErrNoNode},
		{"set missing", func() error { return s.Set("/nope", nil) }, ErrNoNode},
		{"delete missing", func() error { return s.Delete("/nope") }, ErrNoNode},
		{"children of missing", func() error { _, err := s.Children("/nope"); return err }, ErrNoNode},
		{"children bad path", func() error { _, err := s.Children("nope"); return err }, ErrBadPath},
		{"relative path", func() error { return s.Create("x", nil, 0) }, ErrBadPath},
		{"empty path", func() error { _, err := s.Get(""); return err }, ErrBadPath},
		{"create with dead session", func() error { return s.Create("/b", nil, 42) }, ErrNoSession},
		{"expire unknown session", func() error { return s.ExpireSession(42) }, ErrNoSession},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.op(); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a/b", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Delete non-empty = %v", err)
	}
	if err := s.Delete("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
}

func TestChildren(t *testing.T) {
	s := New()
	for _, p := range []string{"/sup", "/sup/n2", "/sup/n1", "/sup/n1/deep", "/other"} {
		if err := s.Create(p, nil, 0); err != nil {
			t.Fatalf("Create %s: %v", p, err)
		}
	}
	got, err := s.Children("/sup")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("Children = %v", got)
	}
	root, err := s.Children("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 2 || root[0] != "other" || root[1] != "sup" {
		t.Fatalf("root children = %v", root)
	}
}

func TestEphemeralNodesDieWithSession(t *testing.T) {
	s := New()
	if err := s.Create("/sup", nil, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	if err := s.Create("/sup/worker", []byte("hb"), sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/sup/worker2", nil, sess); err != nil {
		t.Fatal(err)
	}
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/sup/worker") || s.Exists("/sup/worker2") {
		t.Error("ephemeral nodes survived session expiry")
	}
	if !s.Exists("/sup") {
		t.Error("persistent parent deleted")
	}
}

// TestNoChildrenUnderEphemeral: a child of an ephemeral node would
// outlive its parent's session, leaving an orphan that Exists sees but
// no Children listing reaches. Create rejects it, whatever the child's
// own session.
func TestNoChildrenUnderEphemeral(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	if err := s.Create("/a/eph", nil, sess); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []SessionID{0, sess} {
		if err := s.Create("/a/eph/child", nil, owner); !errors.Is(err, ErrEphemeralParent) {
			t.Fatalf("Create under ephemeral (session %d) = %v, want ErrEphemeralParent", owner, err)
		}
	}
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/eph/child") {
		t.Fatal("child of an expired ephemeral node survived")
	}
	// The path is free again for a fresh, persistent subtree.
	if err := s.Create("/a/eph", nil, 0); err != nil {
		t.Fatalf("re-Create parent: %v", err)
	}
	if err := s.Create("/a/eph/child", nil, 0); err != nil {
		t.Fatalf("Create under persistent parent: %v", err)
	}
	got, err := s.Children("/a/eph")
	if err != nil || len(got) != 1 || got[0] != "child" {
		t.Fatalf("Children = %v, %v", got, err)
	}
}

// TestDataVersions: Create starts a node at version 0, each successful
// Set adds 1, a failed Set bumps nothing, and a node re-created after
// its session expires starts over at 0 — Zookeeper's Stat.version.
func TestDataVersions(t *testing.T) {
	s := New()
	if err := s.Create("/sup", nil, 0); err != nil {
		t.Fatal(err)
	}
	versions := func() map[string]int64 {
		t.Helper()
		got, err := s.ChildVersions("/sup")
		if err != nil {
			t.Fatalf("ChildVersions: %v", err)
		}
		return got
	}
	sess := s.NewSession()
	if err := s.Create("/sup/n1", []byte("cap"), sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/sup/n2", nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := versions(); !maps.Equal(got, map[string]int64{"n1": 0, "n2": 0}) {
		t.Fatalf("after Create: %v, want n1=0 n2=0", got)
	}
	for k := int64(1); k <= 3; k++ {
		if err := s.Set("/sup/n1", []byte("cap")); err != nil {
			t.Fatal(err)
		}
		if got := versions()["n1"]; got != k {
			t.Fatalf("after %d Sets: version %d", k, got)
		}
	}
	if data, _ := s.Get("/sup/n1"); string(data) != "cap" {
		t.Fatalf("Set with the same payload changed data to %q", data)
	}
	// Failed Sets: a missing node and a malformed path bump nothing.
	if err := s.Set("/sup/missing", nil); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Set missing = %v", err)
	}
	if err := s.Set("sup/n1", nil); !errors.Is(err, ErrBadPath) {
		t.Fatalf("Set bad path = %v", err)
	}
	if got := versions(); !maps.Equal(got, map[string]int64{"n1": 3, "n2": 0}) {
		t.Fatalf("after failed Sets: %v, want n1=3 n2=0", got)
	}
	// Expiry removes the node; re-Create resets the version.
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if _, ok := versions()["n1"]; ok {
		t.Fatal("expired node still listed")
	}
	if err := s.Create("/sup/n1", []byte("cap"), s.NewSession()); err != nil {
		t.Fatal(err)
	}
	if got := versions()["n1"]; got != 0 {
		t.Fatalf("after re-Create: version %d, want 0", got)
	}
}

// TestChildVersionsScope: only direct children are listed — never p
// itself, never grandchildren — and a missing or malformed p is an
// error.
func TestChildVersionsScope(t *testing.T) {
	s := New()
	for _, p := range []string{"/sup", "/sup/n1", "/sup/n1/deep", "/sup/n2", "/supx", "/other"} {
		if err := s.Create(p, nil, 0); err != nil {
			t.Fatalf("Create %s: %v", p, err)
		}
	}
	if err := s.Set("/sup/n2", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.ChildVersions("/sup")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, map[string]int64{"n1": 0, "n2": 1}) {
		t.Fatalf("ChildVersions(/sup) = %v, want n1=0 n2=1", got)
	}
	root, err := s.ChildVersions("/")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(root, map[string]int64{"sup": 0, "supx": 0, "other": 0}) {
		t.Fatalf("ChildVersions(/) = %v", root)
	}
	leaf, err := s.ChildVersions("/sup/n1/deep")
	if err != nil || len(leaf) != 0 {
		t.Fatalf("ChildVersions(leaf) = %v, %v", leaf, err)
	}
	if _, err := s.ChildVersions("/nope"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ChildVersions(missing) = %v", err)
	}
	if _, err := s.ChildVersions("sup"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("ChildVersions(relative) = %v", err)
	}
}

func TestDeleteEphemeralBeforeExpiry(t *testing.T) {
	s := New()
	sess := s.NewSession()
	if err := s.Create("/e", nil, sess); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/e"); err != nil {
		t.Fatal(err)
	}
	// Expiry after manual delete must not error or resurrect.
	if err := s.ExpireSession(sess); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/e") {
		t.Error("node resurrected")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	if err := s.Create("/a", []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("/a")
	got[0] = 'X'
	again, _ := s.Get("/a")
	if string(again) != "abc" {
		t.Error("Get returned aliased data")
	}
}

func TestPathNormalization(t *testing.T) {
	s := New()
	if err := s.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/a/") {
		t.Error("trailing slash not normalized")
	}
	if !s.Exists("//a") {
		t.Error("double slash not normalized")
	}
}

func TestQuickCreateThenGetRoundTrips(t *testing.T) {
	f := func(name string, data []byte) bool {
		if name == "" {
			return true
		}
		// Restrict to a safe single-segment name.
		for _, r := range name {
			if r == '/' || r == 0 {
				return true
			}
		}
		s := New()
		p := "/" + name
		if err := s.Create(p, data, 0); err != nil {
			return false
		}
		got, err := s.Get(p)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
