package group

import (
	"fmt"
	"sort"
)

// Group is a finite permutation group enumerated as an explicit element
// list. Element 0 is always the identity.
type Group struct {
	Name     string
	Elements []Perm
	index    map[string]int
	gens     []Perm
}

// Generate enumerates the closure of the generators by breadth-first
// multiplication. It fails if the group exceeds limit elements.
func Generate(name string, gens []Perm, limit int) (*Group, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("group: no generators")
	}
	deg := len(gens[0])
	for _, g := range gens {
		if len(g) != deg {
			return nil, fmt.Errorf("group: generator degree mismatch")
		}
	}
	g := &Group{Name: name, index: make(map[string]int), gens: gens}
	id := Identity(deg)
	g.Elements = append(g.Elements, id)
	g.index[id.Key()] = 0
	frontier := []Perm{id}
	// prod and key are scratch: only a new element is copied out.
	prod := make(Perm, deg)
	var key []byte
	for len(frontier) > 0 {
		var next []Perm
		for _, e := range frontier {
			for _, gen := range gens {
				for i, x := range e {
					prod[i] = gen[x]
				}
				key = prod.appendKey(key[:0])
				if _, ok := g.index[string(key)]; !ok {
					if len(g.Elements) >= limit {
						return nil, fmt.Errorf("group %s: exceeded limit %d", name, limit)
					}
					g.index[string(key)] = len(g.Elements)
					elem := append(Perm(nil), prod...)
					g.Elements = append(g.Elements, elem)
					next = append(next, elem)
				}
			}
		}
		frontier = next
	}
	return g, nil
}

// Order returns the number of group elements.
func (g *Group) Order() int { return len(g.Elements) }

// Contains reports whether p is an element of g.
func (g *Group) Contains(p Perm) bool {
	_, ok := g.index[p.Key()]
	return ok
}

// ElementsOfOrder returns all elements with the exact given order.
func (g *Group) ElementsOfOrder(k int) []Perm {
	var out []Perm
	for _, e := range g.Elements {
		if e.Order() == k {
			out = append(out, e)
		}
	}
	return out
}

// OrderHistogram returns sorted (order, count) pairs of element orders.
func (g *Group) OrderHistogram() [][2]int {
	m := map[int]int{}
	for _, e := range g.Elements {
		m[e.Order()]++
	}
	keys := make([]int, 0, len(m))
	//fpnvet:orderless collect-then-sort: the histogram is sorted by order
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][2]int, len(keys))
	for i, k := range keys {
		out[i] = [2]int{k, m[k]}
	}
	return out
}

// SubgroupSize returns the order of ⟨gens⟩ inside this group's parent
// symmetric group (it does not require the generators to lie in g).
func SubgroupSize(gens []Perm, limit int) (int, error) {
	sub, err := Generate("sub", gens, limit)
	if err != nil {
		return 0, err
	}
	return sub.Order(), nil
}
