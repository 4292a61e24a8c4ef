package group

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermMulInverse(t *testing.T) {
	p := FromCycles(5, [][]int{{0, 1, 2}})
	q := FromCycles(5, [][]int{{2, 3}})
	pq := p.Mul(q)
	// (p∘q)(2) = p(3) = 3; (p∘q)(3) = p(2) = 0.
	if pq[2] != 3 || pq[3] != 0 {
		t.Fatalf("Mul wrong: %v", pq)
	}
	if !p.Mul(p.Inverse()).IsIdentity() {
		t.Fatal("p * p^-1 != id")
	}
}

func TestPermOrderAndCycles(t *testing.T) {
	p := FromCycles(7, [][]int{{0, 1, 2}, {3, 4}})
	if p.Order() != 6 {
		t.Fatalf("Order = %d, want 6", p.Order())
	}
	ct := p.CycleType()
	if ct[3] != 1 || ct[2] != 1 || ct[1] != 2 {
		t.Fatalf("CycleType = %v", ct)
	}
	if !FromCycles(6, [][]int{{0, 1}, {2, 3}, {4, 5}}).AllCyclesLen(2) {
		t.Fatal("AllCyclesLen(2) false for product of transpositions")
	}
	if FromCycles(6, [][]int{{0, 1}, {2, 3}}).AllCyclesLen(2) {
		t.Fatal("fixed points should fail AllCyclesLen(2)")
	}
}

func TestPermPow(t *testing.T) {
	p := FromCycles(5, [][]int{{0, 1, 2, 3, 4}})
	if !p.Pow(5).IsIdentity() {
		t.Fatal("5-cycle^5 != id")
	}
	if !p.Pow(-1).Equal(p.Inverse()) {
		t.Fatal("Pow(-1) != Inverse")
	}
	if !p.Pow(7).Equal(p.Mul(p)) {
		t.Fatal("Pow(7) != p^2 for 5-cycle")
	}
}

func TestGenerateSymmetric(t *testing.T) {
	for n, want := range map[int]int{3: 6, 4: 24, 5: 120} {
		g, err := Sym(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Order() != want {
			t.Fatalf("|S%d| = %d, want %d", n, g.Order(), want)
		}
	}
}

func TestGenerateAlternating(t *testing.T) {
	for n, want := range map[int]int{4: 12, 5: 60, 6: 360} {
		g, err := Alt(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Order() != want {
			t.Fatalf("|A%d| = %d, want %d", n, g.Order(), want)
		}
	}
}

func TestPSL2Orders(t *testing.T) {
	for q, want := range map[int]int{5: 60, 7: 168, 8: 504, 9: 360, 11: 660, 13: 1092} {
		g, err := PSL2(q)
		if err != nil {
			t.Fatalf("PSL(2,%d): %v", q, err)
		}
		if g.Order() != want {
			t.Fatalf("|PSL(2,%d)| = %d, want %d", q, g.Order(), want)
		}
	}
}

func TestPGL2Orders(t *testing.T) {
	for q, want := range map[int]int{5: 120, 7: 336, 9: 720} {
		g, err := PGL2(q)
		if err != nil {
			t.Fatalf("PGL(2,%d): %v", q, err)
		}
		if g.Order() != want {
			t.Fatalf("|PGL(2,%d)| = %d, want %d", q, g.Order(), want)
		}
	}
}

func TestDirectProduct(t *testing.T) {
	a, _ := Alt(4)
	c, _ := Cyclic(2)
	g, err := DirectProduct(a, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 24 {
		t.Fatalf("|A4 x C2| = %d, want 24", g.Order())
	}
}

func TestElementsOfOrder(t *testing.T) {
	g, _ := Alt(5)
	// A5 has 24 elements of order 5, 20 of order 3, 15 of order 2.
	if n := len(g.ElementsOfOrder(5)); n != 24 {
		t.Fatalf("order-5 elements: %d, want 24", n)
	}
	if n := len(g.ElementsOfOrder(3)); n != 20 {
		t.Fatalf("order-3 elements: %d, want 20", n)
	}
	if n := len(g.ElementsOfOrder(2)); n != 15 {
		t.Fatalf("order-2 elements: %d, want 15", n)
	}
}

func TestFindRSPairsA5(t *testing.T) {
	// A5 is a (2,5,5) group: x order 5, y order 2, xy order 5.
	g, _ := Alt(5)
	rng := rand.New(rand.NewSource(1))
	pairs := FindRSPairs(g, 5, 5, rng, 2000, 3, 60)
	if len(pairs) == 0 {
		t.Fatal("no (2,5,5) pair found in A5")
	}
	found60 := false
	for _, p := range pairs {
		if p.X.Order() != 5 || p.Y.Order() != 2 || p.X.Mul(p.Y).Order() != 5 {
			t.Fatal("pair order constraints violated")
		}
		if p.Sub.Order() == 60 {
			found60 = true
		}
	}
	if !found60 {
		t.Fatal("expected a generating pair with <x,y> = A5")
	}
}

func TestFindRSPairsS5(t *testing.T) {
	// S5 is a (2,4,5) group (x order 5, y order 2, xy order 4).
	g, _ := Sym(5)
	rng := rand.New(rand.NewSource(2))
	pairs := FindRSPairs(g, 5, 4, rng, 4000, 5, 120)
	var full bool
	for _, p := range pairs {
		if p.Sub.Order() == 120 {
			full = true
		}
	}
	if !full {
		t.Fatal("expected S5 to be (2,4,5)-generated")
	}
}

// Property: group elements are closed under multiplication (spot check).
func TestPropertyClosure(t *testing.T) {
	g, _ := Sym(4)
	f := func(i, j uint8) bool {
		a := g.Elements[int(i)%g.Order()]
		b := g.Elements[int(j)%g.Order()]
		return g.Contains(a.Mul(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: order of an element divides the group order (Lagrange).
func TestPropertyLagrange(t *testing.T) {
	g, _ := PSL2(7)
	for _, e := range g.Elements {
		if g.Order()%e.Order() != 0 {
			t.Fatalf("element order %d does not divide %d", e.Order(), g.Order())
		}
	}
}

func TestMenuAllBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("menu build is slow")
	}
	for _, m := range Menu() {
		if m.Name == "PSL(2,17)" || m.Name == "PSL(2,19)" || m.Name == "PSL(2,13)" {
			continue // large; covered indirectly by catalogue generation
		}
		g, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if g.Order() < 2 {
			t.Fatalf("%s: trivial group", m.Name)
		}
	}
}

func TestGL2Order(t *testing.T) {
	g, err := GL2(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 48 {
		t.Fatalf("|GL(2,3)| = %d, want 48", g.Order())
	}
	// GL(2,3) is the (2,3,8) rotation group of the Bolza surface: it has
	// elements of order 8.
	if len(g.ElementsOfOrder(8)) == 0 {
		t.Fatal("GL(2,3) should contain order-8 elements")
	}
}

func TestGL2q4(t *testing.T) {
	g, err := GL2(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 15*12 {
		t.Fatalf("|GL(2,4)| = %d, want 180", g.Order())
	}
}

func TestAffineGroups(t *testing.T) {
	for _, m := range []int{8, 12, 16} {
		g, err := Affine(m)
		if err != nil {
			t.Fatal(err)
		}
		phi := 0
		for u := 1; u < m; u++ {
			if gcd(u, m) == 1 {
				phi++
			}
		}
		if g.Order() != m*phi {
			t.Fatalf("|Aff(%d)| = %d, want %d", m, g.Order(), m*phi)
		}
	}
}

func TestAffineRejectsTiny(t *testing.T) {
	if _, err := Affine(2); err == nil {
		t.Fatal("Affine(2) should be rejected")
	}
}

// decodeKey inverts Perm.Key: a uvarint stream back to the images.
func decodeKey(t *testing.T, k string) Perm {
	t.Helper()
	b := []byte(k)
	var p Perm
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("key %q is not a uvarint stream", k)
		}
		p = append(p, int(v))
		b = b[n:]
	}
	return p
}

func TestPermKeyInjective(t *testing.T) {
	var perms []Perm
	// Every permutation of degree 0..5: different lengths share prefixes.
	var rec func(p Perm, used []bool, deg int)
	rec = func(p Perm, used []bool, deg int) {
		if len(p) == deg {
			perms = append(perms, append(Perm(nil), p...))
			return
		}
		for v := 0; v < deg; v++ {
			if !used[v] {
				used[v] = true
				rec(append(p, v), used, deg)
				used[v] = false
			}
		}
	}
	for deg := 0; deg <= 5; deg++ {
		rec(nil, make([]bool, deg), deg)
	}
	// Large degrees: images at and past 128, where a uvarint grows a
	// second byte, and 256, where a one-byte encoding would wrap.
	for _, deg := range []int{127, 128, 129, 255, 256, 257, 300, 20000} {
		perms = append(perms, Identity(deg))
		for _, sw := range [][2]int{{0, deg - 1}, {1, deg / 2}, {deg - 2, deg - 1}} {
			p := Identity(deg)
			p[sw[0]], p[sw[1]] = p[sw[1]], p[sw[0]]
			perms = append(perms, p)
		}
	}
	seen := map[string]int{}
	for i, p := range perms {
		k := p.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("perms %v and %v share key %q", perms[j], p, k)
		}
		seen[k] = i
		if got := decodeKey(t, k); !got.Equal(p) {
			t.Fatalf("key of %v decodes to %v", p, got)
		}
	}
}
