package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestPoolRunsGraphInDependencyOrder runs a random task graph: every
// task runs exactly once, after every task it depends on, and never
// more than Workers tasks run at a time.
func TestPoolRunsGraphInDependencyOrder(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(1))
	deps := make([][]int, n)
	for i := range deps {
		for d := 0; d < n; d++ {
			// Edges only to higher indices keep the graph acyclic and
			// make index order wrong, so the pool must follow deps.
			if d > i && rng.Intn(8) == 0 {
				deps[i] = append(deps[i], d)
			}
		}
	}
	for _, workers := range []int{1, 3, 0} {
		var done [n]atomic.Bool
		var runs [n]atomic.Int32
		var running, peak atomic.Int32
		Pool{Workers: workers}.Run(n, deps, func(i int) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for _, d := range deps[i] {
				if !done[d].Load() {
					t.Errorf("workers=%d: task %d started before its dependency %d finished", workers, i, d)
				}
			}
			runs[i].Add(1)
			done[i].Store(true)
			running.Add(-1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
		if workers > 0 && int(peak.Load()) > workers {
			t.Fatalf("workers=%d: %d tasks ran at once", workers, peak.Load())
		}
	}
}
