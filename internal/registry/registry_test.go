package registry

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
)

// testAddrs synthesizes a small structured network for training.
func testAddrs(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	base := ip6.MustParseAddr("2001:db8::")
	out := make([]ip6.Addr, n)
	for i := range out {
		a := base
		a = a.SetField(8, 2, uint64(rng.Intn(8)))
		a = a.SetField(16, 16, rng.Uint64())
		out[i] = a
	}
	return out
}

func testModel(t *testing.T, seed int64) *core.Model {
	t.Helper()
	m, err := core.Build(testAddrs(1500, seed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPutGetVersioning(t *testing.T) {
	r, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := testModel(t, 1), testModel(t, 2)

	info1, err := r.Put("web", m1)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Version != 1 {
		t.Errorf("first version = %d, want 1", info1.Version)
	}
	if info1.TrainCount != m1.TrainCount || info1.Segments != len(m1.Segments) {
		t.Errorf("info = %+v", info1)
	}
	info2, err := r.Put("web", m2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 {
		t.Errorf("second version = %d, want 2", info2.Version)
	}

	// Latest must be version 2; explicit version 1 must still resolve.
	got, info, err := r.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || got.TrainCount != m2.TrainCount {
		t.Errorf("latest = v%d", info.Version)
	}
	_, info, err = r.GetVersion("web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Errorf("explicit version = v%d", info.Version)
	}

	if _, _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing model error = %v", err)
	}
	if _, _, err := r.GetVersion("web", 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version error = %v", err)
	}
}

func TestRejectsInvalidNames(t *testing.T) {
	r, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 1)
	for _, bad := range []string{"", ".", "../escape", "a/b", "has space", ".hidden"} {
		if _, err := r.Put(bad, m); err == nil {
			t.Errorf("Put(%q) accepted an invalid name", bad)
		}
	}
}

func TestReopenScansDisk(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 1)
	if _, err := r.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("mail", m); err != nil {
		t.Fatal(err)
	}
	// Plant a corrupt file; reopen must skip it, not fail.
	if err := os.WriteFile(filepath.Join(dir, "web", "v000009.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	list := r2.List()
	if len(list) != 2 {
		t.Fatalf("List() = %d entries, want 2", len(list))
	}
	if list[0].Name != "mail" || list[1].Name != "web" {
		t.Errorf("List() order = %v, %v", list[0].Name, list[1].Name)
	}
	if list[1].Version != 2 {
		t.Errorf("web latest = v%d, want 2 (corrupt v9 must be skipped)", list[1].Version)
	}
	got, _, err := r2.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	if got.TrainCount != m.TrainCount {
		t.Errorf("reloaded TrainCount = %d", got.TrainCount)
	}
	vs, err := r2.Versions("web")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Errorf("Versions(web) = %d", len(vs))
	}
}

// TestOpenRemovesStalePutFiles checks that the temp file of a Put that
// crashed before its rename is swept at Open and never indexed — even
// when it holds a complete model document.
func TestOpenRemovesStalePutFiles(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(dir, "web", "v000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	stale := []string{filepath.Join(dir, "web", ".put-x"), filepath.Join(dir, "mail", ".put-y")}
	if err := os.Mkdir(filepath.Join(dir, "mail"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if err := os.WriteFile(p, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale %s survived Open (stat err %v)", p, err)
		}
	}
	if vs, err := r2.Versions("web"); err != nil || len(vs) != 1 || vs[0].Version != 1 {
		t.Errorf("Versions(web) = %+v, %v; want only v1", vs, err)
	}
	if list := r2.List(); len(list) != 1 || list[0].Name != "web" {
		t.Errorf("List() = %+v, want only web", list)
	}
}

func TestPutRawValidates(t *testing.T) {
	r, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutRaw("web", []byte(`{"version": 99}`)); err == nil {
		t.Error("PutRaw accepted an invalid document")
	}
	m := testModel(t, 1)
	raw, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.PutRaw("web", raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.TrainCount != m.TrainCount {
		t.Errorf("info = %+v", info)
	}
}

func TestDelete(t *testing.T) {
	r, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 1)
	if _, err := r.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("web"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("web"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("web"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete = %v", err)
	}
	if err := r.Delete("web"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete = %v", err)
	}
}

// TestVersionsMonotonicAcrossDelete guards against version-number reuse:
// a Put after Delete must not hand out an old version number, or a stale
// in-flight load could be cached under the new version's key.
func TestVersionsMonotonicAcrossDelete(t *testing.T) {
	r, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 1)
	if _, err := r.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("web", m); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("web"); err != nil {
		t.Fatal(err)
	}
	info, err := r.Put("web", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 {
		t.Errorf("version after delete = %d, want 3 (no reuse)", info.Version)
	}
}

func TestLRUEviction(t *testing.T) {
	r, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 1)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Put(name, m); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", st.CacheEntries)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions")
	}
	// "a" was evicted; getting it again must be a miss that reloads from
	// disk, while "c" stays a hit.
	before := r.Stats()
	if _, _, err := r.Get("c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("hits %d -> %d, want +1", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses+1 {
		t.Errorf("misses %d -> %d, want +1", before.Misses, after.Misses)
	}
}

// TestConcurrentAccess hammers the registry from many goroutines — mixed
// puts, gets, lists and deletes — and must pass under go test -race.
func TestConcurrentAccess(t *testing.T) {
	r, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	seedModel := testModel(t, 1)
	names := []string{"alpha", "beta", "gamma", "delta"}
	for _, name := range names {
		if _, err := r.Put(name, seedModel); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(10) {
				case 0:
					if _, err := r.Put(name, seedModel); err != nil {
						t.Error(err)
					}
				case 1:
					r.List()
					r.Stats()
				default:
					m, _, err := r.Get(name)
					if err != nil {
						t.Error(err)
						continue
					}
					// Exercise shared read-only use of the decoded model.
					if _, err := m.Browse(nil); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := r.Stats()
	if st.Models != len(names) {
		t.Errorf("models = %d, want %d", st.Models, len(names))
	}
	if st.CacheEntries > 3 {
		t.Errorf("cache entries = %d, over capacity", st.CacheEntries)
	}
}

// TestSingleFlight checks a burst of concurrent cold Gets decodes once.
func TestSingleFlight(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("web", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Reopen so the cache is cold but the file is on disk.
	r2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	models := make([]*core.Model, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, err := r2.Get("web")
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	st := r2.Stats()
	// All waiters must observe the same decoded instance; at most a couple
	// of decodes may race ahead of the single-flight registration.
	for i := 1; i < n; i++ {
		if models[i] != models[0] && models[i] == nil {
			t.Errorf("goroutine %d got a nil model", i)
		}
	}
	if st.Hits+st.Misses < n {
		t.Errorf("lookups = %d, want >= %d", st.Hits+st.Misses, n)
	}
}

// TestConcurrentPutGetDeleteWithEviction hammers one registry with
// concurrent Put, Get, GetVersion, List, Versions and Delete over a
// handful of model names, with a cache far smaller than the number of
// live versions so the LRU constantly evicts and reloads from disk. The
// invariant under test is atomic publication: a reader must never observe
// a partially-published version — every Get either fails with ErrNotFound
// (name deleted) or returns a fully valid, generation-capable model whose
// Info matches a version that a Put completed. Run with -race.
func TestConcurrentPutGetDeleteWithEviction(t *testing.T) {
	r, err := Open(t.TempDir(), 2) // tiny LRU: force eviction + reload
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	// Two distinct prebuilt models (training is too slow to do per-Put in
	// the loop); which one a version holds is irrelevant to the invariant.
	models := []*core.Model{testModel(t, 1), testModel(t, 2)}

	const (
		writers        = 3
		readers        = 6
		putsPerWriter  = 8
		readsPerReader = 400
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*putsPerWriter+readers*readsPerReader)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWriter; i++ {
				name := names[(w+i)%len(names)]
				if _, err := r.Put(name, models[(w+i)%len(models)]); err != nil {
					errs <- err
					return
				}
				if i%4 == 3 {
					// Deleting concurrently with readers and writers: a
					// NotFound race with another goroutine's delete is fine.
					if err := r.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				name := names[(g+i)%len(names)]
				m, info, err := r.Get(name)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // deleted between resolve and now: legal
					}
					errs <- err
					return
				}
				// A published model must be complete and usable: a torn or
				// partially visible version would fail one of these.
				if m == nil || m.Net == nil || len(m.Segments) == 0 {
					errs <- errors.New("reader observed an incomplete model")
					return
				}
				if info.Name != name || info.Version < 1 || info.Segments != len(m.Segments) {
					errs <- errors.New("reader observed inconsistent info")
					return
				}
				if m.TrainCount != info.TrainCount {
					errs <- errors.New("info train count does not match model")
					return
				}
				if _, err := m.Generate(core.GenerateOptions{Count: 2, Seed: int64(i)}); err != nil {
					errs <- err
					return
				}
				// Exercise the version index paths under the same churn.
				if vs, err := r.Versions(name); err == nil {
					if len(vs) == 0 {
						errs <- errors.New("Versions returned empty without error")
						return
					}
					if _, _, err := r.GetVersion(name, vs[len(vs)-1].Version); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				}
				_ = r.List()
				_ = r.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Eviction must actually have happened for the test to mean anything.
	if st := r.Stats(); st.Evictions == 0 {
		t.Errorf("no LRU evictions under churn: stats = %+v", st)
	}
	// Version numbers never regress: whatever survives, each name's
	// versions are strictly increasing and unique.
	for _, name := range names {
		vs, err := r.Versions(name)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(vs); i++ {
			if vs[i].Version <= vs[i-1].Version {
				t.Errorf("%s versions not strictly increasing: %v then %v", name, vs[i-1].Version, vs[i].Version)
			}
		}
	}
}
