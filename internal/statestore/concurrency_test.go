package statestore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSupervisorChurn hammers the store with the access pattern
// Nimbus produces: many supervisors registering ephemeral nodes,
// heartbeating, and expiring concurrently, while readers list children
// and their data versions.
// Run with -race.
func TestConcurrentSupervisorChurn(t *testing.T) {
	s := New()
	if err := s.Create("/supervisors", nil, 0); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/supervisors/node-%d", w)
			for r := 0; r < rounds; r++ {
				sess := s.NewSession()
				if err := s.Create(path, []byte("hb"), sess); err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				for hb := 0; hb < 3; hb++ {
					if err := s.Set(path, []byte{byte(hb)}); err != nil {
						t.Errorf("set %s: %v", path, err)
						return
					}
				}
				if err := s.ExpireSession(sess); err != nil {
					t.Errorf("expire: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent readers: the membership listing, and the detector's
	// version scan racing every Set.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < workers*rounds; i++ {
			if _, err := s.Children("/supervisors"); err != nil {
				t.Errorf("children: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < workers*rounds; i++ {
			versions, err := s.ChildVersions("/supervisors")
			if err != nil {
				t.Errorf("child versions: %v", err)
				return
			}
			for name, v := range versions {
				if v < 0 || v > 3 {
					t.Errorf("%s at version %d, want 0..3 (3 Sets per session)", name, v)
					return
				}
			}
		}
	}()
	wg.Wait()

	children, err := s.Children("/supervisors")
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 0 {
		t.Errorf("ephemeral nodes leaked: %v", children)
	}
}
