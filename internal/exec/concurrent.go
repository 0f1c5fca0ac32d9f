package exec

import (
	"fmt"

	"pioqo/internal/device"
	"pioqo/internal/sim"
)

// ExecuteAll runs several scans concurrently on ctx's environment — the
// inter-query parallelism setting the paper defers to future work (§4.3):
// concurrent operators share the CPU, the buffer pool, and, crucially, the
// device queue. Per-query results carry each query's own start-to-finish
// runtime; the returned summary meters the device over the whole window.
func ExecuteAll(ctx *Context, specs []Spec) ([]Result, device.Summary) {
	results := make([]Result, len(specs))
	_, io, _ := metered(ctx, "queries-join", func(p *sim.Proc) {
		wg := sim.NewWaitGroup(ctx.Env)
		for i, spec := range specs {
			i, spec := i, spec
			wg.Add(1)
			ctx.Env.Go(fmt.Sprintf("query%d", i), func(qp *sim.Proc) {
				defer wg.Done()
				t0 := qp.Now()
				results[i] = RunScan(qp, ctx, spec)
				results[i].Runtime = sim.Duration(qp.Now() - t0)
			})
		}
		p.WaitFor(wg)
	})
	return results, io
}
