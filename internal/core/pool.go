package core

import (
	"runtime"
	"sync"
)

// Pool runs a set of tasks across a bounded number of goroutines, each
// task starting as soon as the tasks it depends on have finished. It is
// the one fan-out the report and the fold share: Runner renders sections
// on it, and IncrementalEngine folds facts and sections on it. The zero
// value uses one worker per CPU.
type Pool struct {
	// Workers caps the number of concurrent tasks; <= 0 means
	// runtime.NumCPU().
	Workers int
}

// Run executes tasks 0..n-1 and returns when all of them have finished.
// deps[i] lists the tasks that must finish before task i starts; a nil
// deps (or a nil entry) means no prerequisites. The graph must be
// acyclic. Ready tasks start in index order. The caller's goroutine is
// one of the workers, so a one-worker pool runs everything inline.
//
// Every write a task makes happens before the tasks that depend on it
// start, and before Run returns.
func (p Pool) Run(n int, deps [][]int, run func(i int)) {
	if n == 0 {
		return
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)

	waiting := make([]int, n)
	dependents := make([][]int, n)
	for i := range deps {
		waiting[i] = len(deps[i])
		for _, d := range deps[i] {
			dependents[d] = append(dependents[d], i)
		}
	}
	// Capacity n: every task is queued exactly once, so sends never block.
	ready := make(chan int, n)
	for i := range waiting {
		if waiting[i] == 0 {
			ready <- i
		}
	}

	var mu sync.Mutex
	done := 0
	work := func() {
		for i := range ready {
			run(i)
			mu.Lock()
			for _, d := range dependents[i] {
				if waiting[d]--; waiting[d] == 0 {
					ready <- d
				}
			}
			if done++; done == n {
				close(ready)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
