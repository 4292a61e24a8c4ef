// Merge-ledger property tests: interleaved Puts from concurrent stores
// over one file — duplicated, out-of-order, two processes' worth — must
// load to exactly the committed result set a sequential run produces.
// This is the property the distributed sweep fabric leans on when a
// coordinator and a crashed predecessor (or a crash_resume.sh restart)
// have both written the same ledger.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lcg is a tiny deterministic generator for shuffling operation
// schedules; tests must not depend on math/rand's global state.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// recAt is the canonical progress of key k after step st: records of
// one key are a monotone series, exactly like the engine's committed
// prefix, with the final step marking the point Done.
func recAt(k, st, lastStep int) Record {
	blocks := 3*st + 1
	return Record{
		Key: fmt.Sprintf("pt-%d", k), Blocks: blocks, Shots: blocks * 64, Errors: st,
		Done: st == lastStep, EarlyStopped: st == lastStep && k%2 == 0,
	}
}

// TestInterleavedPutsMatchSequential replays the same multiset of Puts
// through (a) one sequential store and (b) two stores interleaved in a
// trial-dependent shuffled order — duplicated ops included — and
// demands the reloaded ledgers be identical.
func TestInterleavedPutsMatchSequential(t *testing.T) {
	const keys, steps = 4, 6
	type op struct{ k, st int }
	var all []op
	for k := 0; k < keys; k++ {
		for st := 0; st < steps; st++ {
			all = append(all, op{k, st})
		}
	}

	seqDir := t.TempDir()
	seq, err := Open(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range all {
		if err := seq.Put(recAt(o.k, o.st, steps-1)); err != nil {
			t.Fatal(err)
		}
	}
	want := mustReload(t, seqDir)

	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Deal every op to one process, a third of them to both
			// (duplicated records), then shuffle so blocks arrive out of
			// order within and across processes.
			rng := lcg(0x9e3779b97f4a7c15 ^ uint64(trial))
			procs := [2][]op{}
			for _, o := range all {
				p := rng.intn(2)
				procs[p] = append(procs[p], o)
				if rng.intn(3) == 0 {
					procs[1-p] = append(procs[1-p], o)
				}
			}
			for p := range procs {
				ops := procs[p]
				for i := len(ops) - 1; i > 0; i-- {
					j := rng.intn(i + 1)
					ops[i], ops[j] = ops[j], ops[i]
				}
			}
			stores := [2]*Store{a, b}
			for len(procs[0]) > 0 || len(procs[1]) > 0 {
				p := rng.intn(2)
				if len(procs[p]) == 0 {
					p = 1 - p
				}
				o := procs[p][0]
				procs[p] = procs[p][1:]
				if err := stores[p].Put(recAt(o.k, o.st, steps-1)); err != nil {
					t.Fatal(err)
				}
			}
			got := mustReload(t, dir)
			assertSameRecords(t, got, want)
		})
	}
}

// TestConcurrentStoresConverge runs N stores over one directory from N
// goroutines (the -race check of the merge path), then has each store
// flush once more sequentially: a flush that lost the read→rename race
// re-merges on its next flush, so one ordered pass converges the file
// to the union of everyone's progress.
func TestConcurrentStoresConverge(t *testing.T) {
	const nStores, keys, steps = 4, 3, 5
	dir := t.TempDir()
	stores := make([]*Store, nStores)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			rng := lcg(uint64(i) + 1)
			for n := 0; n < keys*steps; n++ {
				k, st := rng.intn(keys), rng.intn(steps)
				if err := s.Put(recAt(k, st, steps-1)); err != nil {
					t.Error(err)
					return
				}
			}
			// Every store ends by publishing each key's final step, so
			// the expected merged ledger is recAt(k, steps-1) for all k.
			for k := 0; k < keys; k++ {
				if err := s.Put(recAt(k, steps-1, steps-1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for _, s := range stores {
			if err := s.Put(recAt(k, steps-1, steps-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := mustReload(t, dir)
	if len(got) != keys {
		t.Fatalf("merged ledger holds %d records, want %d", len(got), keys)
	}
	for k := 0; k < keys; k++ {
		want := recAt(k, steps-1, steps-1)
		r, ok := findRecord(got, want.Key)
		if !ok || r != want {
			t.Errorf("key %s: merged %+v, want %+v", want.Key, r, want)
		}
	}
}

// A ledger assembled from two processes' records — progress out of
// order, duplicated keys — must load to the per-key maximum no matter
// the line order.
func TestMixedVersionOutOfOrderRecordsLoadToMax(t *testing.T) {
	newer := Record{Key: "pt", Blocks: 9, Shots: 576, Errors: 3}
	older := Record{Key: "pt", Blocks: 2, Shots: 128, Errors: 1}
	finished := Record{Key: "fin", Blocks: 4, Shots: 256, Errors: 2, Done: true, EarlyStopped: true}
	partial := Record{Key: "fin", Blocks: 7, Shots: 448, Errors: 2}
	layouts := map[string]string{
		"v2-newer-first":  v2Line(t, newer) + v2Line(t, older),
		"v2-older-first":  v2Line(t, older) + v2Line(t, newer),
		"done-then-later": v2Line(t, finished) + v2Line(t, partial) + v2Line(t, older) + v2Line(t, newer),
	}
	//fpnvet:orderless each layout asserts its own expectations; map order is irrelevant
	for name, content := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, content)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := s.Lookup("pt"); !ok || r != newer {
				t.Errorf("pt resolved to %+v (ok=%v), want the more-advanced %+v", r, ok, newer)
			}
			if strings.Contains(content, `"fin"`) {
				// Done beats a longer in-progress prefix: a finished
				// point is never reopened by a stale record.
				if r, ok := s.Lookup("fin"); !ok || r != finished {
					t.Errorf("fin resolved to %+v (ok=%v), want the Done record %+v", r, ok, finished)
				}
			}
			// Rewriting through a Put must preserve the merged view.
			if err := s.Put(Record{Key: "extra", Blocks: 1, Shots: 64}); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := s2.Lookup("pt"); !ok || r != newer {
				t.Errorf("pt after rewrite: %+v (ok=%v), want %+v", r, ok, newer)
			}
		})
	}
}

// A pre-existing ".corrupt" sidecar (evidence from an earlier incident)
// must not disturb merging, and fresh mid-file damage discovered by the
// pre-flush merge must fail the Put immediately — no retries, since the
// damage is not transient — while quarantining to the next free
// ".corrupt.N" name.
func TestMergeWithSidecarPresentAndFreshCorruption(t *testing.T) {
	dir := t.TempDir()
	sidecar := filepath.Join(dir, FileName+".corrupt")
	if err := os.WriteFile(sidecar, []byte("earlier evidence\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	var sleeps int
	s, err := OpenOptions(dir, Options{Sleep: func(time.Duration) { sleeps++ }})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(recAt(0, 1, 9)); err != nil {
		t.Fatal(err)
	}
	// A second store still merges normally with the sidecar sitting there.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(recAt(1, 2, 9)); err != nil {
		t.Fatal(err)
	}
	if got := mustReload(t, dir); len(got) != 2 {
		t.Fatalf("merged ledger holds %d records, want 2", len(got))
	}

	// Now damage the live file mid-stream and Put again from the first
	// store: the pre-flush merge must refuse, once.
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte("garbage line\n"), data...)
	if err := os.WriteFile(filepath.Join(dir, FileName), damaged, 0o666); err != nil {
		t.Fatal(err)
	}
	err = s.Put(recAt(0, 3, 9))
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("Put over damaged file: got %v, want *CorruptRecordError", err)
	}
	if sleeps != 0 {
		t.Errorf("corruption was retried %d times; it is not transient", sleeps)
	}
	if ce.Sidecar != filepath.Join(dir, FileName+".corrupt.1") {
		t.Errorf("fresh quarantine landed at %q, want the .corrupt.1 sidecar", ce.Sidecar)
	}
	if ev, err := os.ReadFile(sidecar); err != nil || string(ev) != "earlier evidence\n" {
		t.Errorf("earlier sidecar disturbed: %q, %v", ev, err)
	}
}

// mustReload opens the directory fresh and returns its sorted records.
func mustReload(t *testing.T, dir string) []Record {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s.Sorted()
}

func findRecord(recs []Record, key string) (Record, bool) {
	for _, r := range recs {
		if r.Key == key {
			return r, true
		}
	}
	return Record{}, false
}

func assertSameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ledger holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
