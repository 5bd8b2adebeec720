package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"herqules/internal/mir"
)

// genRandomCFG builds a function with n blocks and random branches. Every
// block ends in ret, br, or condbr to random targets, so arbitrary
// (including irreducible) control flow arises.
func genRandomCFG(seed int64, n int) *mir.Func {
	rng := rand.New(rand.NewSource(seed))
	mod := mir.NewModule(fmt.Sprintf("cfg%d", seed))
	b := mir.NewBuilder(mod)
	f := b.Func("f", mir.FuncType(mir.Void, mir.I64), "x")
	blocks := []*mir.Block{b.Blk}
	for i := 1; i < n; i++ {
		blocks = append(blocks, b.Block(fmt.Sprintf("b%d", i)))
	}
	for _, blk := range blocks {
		b.SetBlock(blk)
		switch rng.Intn(4) {
		case 0:
			b.Ret(nil)
		case 1:
			b.Br(blocks[rng.Intn(n)])
		default:
			b.CondBr(f.Params[0], blocks[rng.Intn(n)], blocks[rng.Intn(n)])
		}
	}
	// Guarantee at least one exit.
	last := blocks[n-1]
	last.Instrs = nil
	b.SetBlock(last)
	b.Ret(nil)
	mod.Finalize()
	return f
}

// bruteDominates computes dominance by definition: a dominates b iff every
// entry→b path passes through a, i.e. b is unreachable from the entry when
// a is removed.
func bruteDominates(f *mir.Func, a, b *mir.Block) bool {
	if a == b {
		return true
	}
	reach := map[*mir.Block]bool{}
	var walk func(x *mir.Block)
	walk = func(x *mir.Block) {
		if x == a || reach[x] {
			return
		}
		reach[x] = true
		for _, s := range x.Succs() {
			walk(s)
		}
	}
	walk(f.Entry())
	return !reach[b]
}

func TestDominatorsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		f := genRandomCFG(seed, 8)
		cfg := NewCFG(f)
		dom := Dominators(cfg)
		for _, a := range cfg.RPO {
			for _, b := range cfg.RPO {
				got := dom.Dominates(a, b)
				want := bruteDominates(f, a, b)
				if got != want {
					t.Fatalf("seed %d: Dominates(%s, %s) = %t, brute force %t\n%s",
						seed, a, b, got, want, f)
				}
			}
		}
	}
}

func TestDominanceIsPartialOrder(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		f := genRandomCFG(seed, 9)
		cfg := NewCFG(f)
		dom := Dominators(cfg)
		for _, a := range cfg.RPO {
			if !dom.Dominates(a, a) {
				t.Fatalf("seed %d: not reflexive at %s", seed, a)
			}
			for _, b := range cfg.RPO {
				if a != b && dom.Dominates(a, b) && dom.Dominates(b, a) {
					t.Fatalf("seed %d: antisymmetry violated: %s, %s", seed, a, b)
				}
				for _, c := range cfg.RPO {
					if dom.Dominates(a, b) && dom.Dominates(b, c) && !dom.Dominates(a, c) {
						t.Fatalf("seed %d: transitivity violated: %s, %s, %s", seed, a, b, c)
					}
				}
			}
		}
	}
}
