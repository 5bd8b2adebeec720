// Package analysis provides the static analyses the HerQules compiler passes
// depend on: control-flow graphs, dominator trees (used to place system-call
// synchronization messages, §3.2), a call graph, escape analysis (used by
// store-to-load forwarding and message elision, §4.1.4), and the
// function-pointer detection scheme of §4.1.4 that tracks pointer values
// through casts and phi nodes to avoid false negatives from type decay.
package analysis

import (
	"herqules/internal/mir"
)

// CFG is the control-flow graph of one function with precomputed
// predecessor lists and a reverse postorder.
type CFG struct {
	Fn    *mir.Func
	Preds map[*mir.Block][]*mir.Block
	// RPO is the reverse postorder of reachable blocks, starting at entry.
	RPO []*mir.Block
	// RPONum maps a block to its reverse-postorder index; unreachable
	// blocks are absent.
	RPONum map[*mir.Block]int
}

// NewCFG builds the CFG for f.
func NewCFG(f *mir.Func) *CFG {
	c := &CFG{
		Fn:     f,
		Preds:  make(map[*mir.Block][]*mir.Block),
		RPONum: make(map[*mir.Block]int),
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	// Postorder DFS from entry, then reverse.
	seen := make(map[*mir.Block]bool)
	var post []*mir.Block
	var dfs func(b *mir.Block)
	dfs = func(b *mir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		dfs(e)
	}
	for i := len(post) - 1; i >= 0; i-- {
		c.RPONum[post[i]] = len(c.RPO)
		c.RPO = append(c.RPO, post[i])
	}
	return c
}

// DomTree is a dominator tree. Idom maps each reachable block (except the
// root) to its immediate dominator.
type DomTree struct {
	Root *mir.Block
	Idom map[*mir.Block]*mir.Block
	// depth of each block in the tree, for O(depth) Dominates queries.
	depth map[*mir.Block]int
}

// Dominators computes the dominator tree of c using the iterative
// Cooper-Harvey-Kennedy algorithm ("A Simple, Fast Dominance Algorithm"),
// the same fixpoint the paper's graph-dominator analysis [65] provides.
func Dominators(c *CFG) *DomTree {
	t := &DomTree{Idom: map[*mir.Block]*mir.Block{}, depth: map[*mir.Block]int{}}
	if len(c.RPO) == 0 {
		return t
	}
	root, idom := c.RPO[0], t.Idom
	idom[root] = root // self, per CHK convention; cleared at the end
	intersect := func(a, b *mir.Block) *mir.Block {
		for a != b {
			for c.RPONum[a] > c.RPONum[b] {
				a = idom[a]
			}
			for c.RPONum[b] > c.RPONum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIdom *mir.Block
			for _, p := range c.Preds[b] {
				if _, processed := idom[p]; !processed {
					continue // not yet visited, or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	t.Root = root
	delete(idom, root) // the root has no idom
	t.depth[root] = 0
	var depthOf func(b *mir.Block) int
	depthOf = func(b *mir.Block) int {
		if d, ok := t.depth[b]; ok {
			return d
		}
		d := depthOf(idom[b]) + 1
		t.depth[b] = d
		return d
	}
	for b := range idom {
		depthOf(b)
	}
	return t
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *mir.Block) bool {
	if a == b {
		return true
	}
	da, oka := t.depth[a]
	db, okb := t.depth[b]
	if !oka || !okb || da >= db {
		return false
	}
	for b != nil && t.depth[b] > da {
		b = t.Idom[b]
	}
	return a == b
}

// DominatesInstr reports whether instruction a dominates instruction b:
// either a's block strictly dominates b's, or they share a block and a
// precedes b.
func (t *DomTree) DominatesInstr(a, b *mir.Instr) bool {
	if a.Blk == b.Blk {
		for _, in := range a.Blk.Instrs {
			if in == a {
				return true
			}
			if in == b {
				return false
			}
		}
		return false
	}
	return t.Dominates(a.Blk, b.Blk)
}
