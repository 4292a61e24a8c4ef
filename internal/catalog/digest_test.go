package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// updateDigest rewrites testdata/standard.digest from the current
// implementation:
//
//	go test ./internal/catalog -run TestStandardDigest -update
//
// Only do this deliberately: the digest pins the catalogue's identity,
// so a drift means some code changed its parameters, checks, logicals
// or map.
var updateDigest = flag.Bool("update", false, "rewrite testdata/standard.digest")

// entryDigest hashes everything a catalogue entry carries: family,
// subfamily, group, code name and family, n, k, distances with their
// exactness flags, every check's basis, support and colour, both
// logical bases, and the map's dart permutations.
func entryDigest(e Entry) string {
	h := sha256.New()
	c := e.Code
	fmt.Fprintf(h, "%s|%v|%s|%s|%s|n=%d|k=%d|dx=%d,%v|dz=%d,%v\n",
		e.Family, e.Subfamily, e.GroupName, c.Name, c.Family,
		c.N, c.K, c.DX, c.DXExact, c.DZ, c.DZExact)
	for _, ch := range c.Checks {
		fmt.Fprintf(h, "check %c %d %v\n", ch.Basis, ch.Color, ch.Support)
	}
	for _, v := range c.LogicalX {
		fmt.Fprintf(h, "lx %v\n", v.Support())
	}
	for _, v := range c.LogicalZ {
		fmt.Fprintf(h, "lz %v\n", v.Support())
	}
	if m := e.Map; m != nil {
		fmt.Fprintf(h, "sigma %v\nalpha %v\n", m.Sigma, m.Alpha)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// catalogDigest renders one "name digest" line per entry, in catalogue
// order, followed by a digest of those lines.
func catalogDigest(entries []Entry) string {
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%s %s\n", e.Code.Name, entryDigest(e))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	fmt.Fprintf(&sb, "total %s\n", hex.EncodeToString(sum[:]))
	return sb.String()
}

// TestStandardDigest pins the identity of the whole standard catalogue:
// a faster search, echelon or distance routine must reproduce every
// entry exactly.
func TestStandardDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	got := catalogDigest(Standard())
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkDigest(t, got)
}

var digestPath = filepath.Join("testdata", "standard.digest")

// checkDigest compares a catalogue digest with the golden file.
func checkDigest(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run TestStandardDigest with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("standard catalogue digest drifted:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestStandardConcurrentCallers races several first callers of
// Standard: every caller must see the same slice, and its digest must
// match the golden file. The callers race the build itself only when
// the test runs alone, as in CI's race step
// (go test -race -run TestStandardConcurrent).
func TestStandardConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	const callers = 4
	results := make([][]Entry, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Standard()
		}(i)
	}
	wg.Wait()
	for i, r := range results[1:] {
		if len(r) != len(results[0]) || (len(r) > 0 && &r[0] != &results[0][0]) {
			t.Fatalf("caller %d got a different slice", i+1)
		}
	}
	checkDigest(t, catalogDigest(results[0]))
}
