// Command enginedemo exercises the shared-run engine through the
// public API: one batch serves the figure harnesses, Compare and a
// scenario sweep, and the run-cache accounting shows the reuse.
package main

import (
	"context"
	"fmt"
	"os"

	"samielsq"
)

func main() {
	benchmarks := []string{"swim", "gzip"}
	const insts = 20_000

	b := samielsq.NewBatch(0)
	fig := b.Figure56(benchmarks, insts)
	fmt.Println(fig)

	// Compare reuses the pair of runs Figure56 already simulated.
	r := samielsq.CompareIn(b, "swim", insts)
	fmt.Printf("swim via CompareIn: IPC %.3f -> %.3f, LSQ saving %.0f%%\n",
		r.Conventional.IPC, r.SAMIE.IPC, r.LSQSavingPct)

	sweep, err := b.Scenario(context.Background(), "shared-lsq-sizes", benchmarks, insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(sweep)

	st := b.Stats()
	fmt.Printf("batch: %d executed, %d of %d requests from cache (%.0f%% reuse)\n",
		st.Executed, st.Hits, st.Requests, 100*st.HitRate())
}
