package opt

import (
	"sync"

	"elasticml/internal/conf"
)

// The task-parallel optimizer of Appendix C differs from the sequential
// search only in who runs enumBlock: the master prepares and finishes the
// CP grid points, and a pool of workers, each with its own evaluator
// (estimator, selection table and cost cells), enumerates the blocks. The
// master pipelines: it prepares the next point while workers drain earlier
// ones, and finishes each point once its tasks complete. The semi-independent-problems property (§3.2) makes the tasks
// embarrassingly parallel with lock-free result slots.

// enumPool is the worker pool. effort holds each worker's compilations and
// costings.
type enumPool struct {
	tasks  chan enumTask
	wg     sync.WaitGroup
	effort []Stats
}

// enumTask is one block of a prepared point: it writes p.outs[k].
type enumTask struct {
	p *cpPoint
	k int
}

// startPool starts the workers; they exit once the master closes tasks and
// the queue drains, and wait waits for them. A few queued tasks per worker
// let the master run ahead into the next point instead of handing over
// each task as a worker frees up.
func (o *Optimizer) startPool(workers int, srm []conf.Bytes, numLeaf int) *enumPool {
	pl := &enumPool{tasks: make(chan enumTask, 4*workers), effort: make([]Stats, workers)}
	pl.wg.Add(workers)
	for w := range pl.effort {
		go func(local *Stats) {
			defer pl.wg.Done()
			ev := o.newEvaluator(srm, numLeaf)
			for tk := range pl.tasks {
				tk.p.outs[tk.k] = o.enumBlock(tk.p.tasks[tk.k], srm, ev, local, nil)
				tk.p.wg.Done()
			}
			local.Costings = ev.est.Invocations
		}(&pl.effort[w])
	}
	return pl
}

// submit hands a prepared point's enumeration tasks to the workers.
func (pl *enumPool) submit(p *cpPoint) {
	p.wg.Add(len(p.tasks))
	for k := range p.tasks {
		pl.tasks <- enumTask{p: p, k: k}
	}
}

// wait returns once every worker has exited, which they do after the
// master closes tasks and the queue drains, and adds their effort to stats.
func (pl *enumPool) wait(stats *Stats) {
	pl.wg.Wait()
	for _, e := range pl.effort {
		stats.BlockCompilations += e.BlockCompilations
		stats.Costings += e.Costings
	}
}
