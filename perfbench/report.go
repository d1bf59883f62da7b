package main

import (
	"fmt"
	"runtime"
	"sort"
)

// printEndToEnd prints the end-to-end metrics with their sample counts
// and the phase details behind them.
func (b *bench) printEndToEnd(r *e2e) {
	out := b.out
	w := b.w
	us := func(xs []float64) string { return fmtList(xs, "%.1f") }
	fmt.Fprintf(out, "\nend-to-end (%s, seed %d); per-round values in brackets\n", b.name, b.seed)
	fmt.Fprintf(out, "  setup_s              %10.4f s     median of %s\n", median(r.setups), fmtList(r.setups, "%.4f"))
	fmt.Fprintf(out, "  route_p50_us         %10.1f us    open loop at %.0f/s, %d routes: %s\n", r.p50, w.OpenRate, r.routeSamples, us(r.p50s))
	fmt.Fprintf(out, "  route_rps            %10.0f 1/s   closed loop, %d conns x %d in flight: %s\n", r.rps, connections, inFlight, fmtList(r.rpss, "%.0f"))
	fmt.Fprintf(out, "  answered_share       %10.6f ratio %d attempted, %d failed (%v)\n", b.answeredShare(), b.attempted, b.fails.total(), b.fails)
	fmt.Fprintf(out, "  collective_p50_us    %10.1f us    %d collectives one at a time: %s\n", r.collP50, r.collSamples, us(r.collP50s))
	fmt.Fprintf(out, "  server_cpu_us_per_op %10.3f us    saturation phase: %s\n", r.cpuPerOp, fmtList(r.cpus, "%.3f"))
	fmt.Fprintf(out, "    generator CPU busy %.0f%% of its %d CPU(s) in that phase: %s\n", 100*r.genCPU, runtime.GOMAXPROCS(0), fmtList(r.genCPUs, "%.2f"))
	fmt.Fprintf(out, "  server_rss_mb        %10.1f MiB   peak, summed over members, median of rounds\n", r.rssMB)
	fmt.Fprintf(out, "printed, not reported (too noisy on a shared machine to bound):\n")
	fmt.Fprintf(out, "  route_p90_us         %10.1f us\n", r.p90)
	fmt.Fprintf(out, "  route_p99_us         %10.1f us    p99.9 %.1f us\n", r.p99, r.p999)
	fmt.Fprintf(out, "  collective_p90_us    %10.1f us    p99 %.1f us\n", r.collP90, r.collP99)
	if r.ackSamples > 0 {
		fmt.Fprintf(out, "  fault_ack_p50_ms     %10.4f ms    %d fault batches\n", r.ackP50, r.ackSamples)
		fmt.Fprintf(out, "  fault_ack_p90_ms     %10.4f ms    p99 %.4f ms\n", r.ackP90, r.ackP99)
	}
	fmt.Fprintf(out, "  generator lag        p50 %.1f us, p99 %.1f us\n", r.lagP50, r.lagP99)
	s := r.open
	fmt.Fprintf(out, "  open-phase scrape: served %d, fast-path %d, cache misses %d, coalesced %d, rejected %d, journal appends %d fsyncs %d, forwarded %d\n",
		s.served, s.fast, s.misses, s.coalesced, s.rejected, s.appends, s.fsyncs, s.forwarded)
	fmt.Fprintf(out, "  host steal during the rounds: %.2f%% of CPU time\n", 100*r.steal)
	fmt.Fprintf(out, "  BFS reachability checks of undeliverable verdicts: %d\n", b.chk.bfsDone.Load())
}

func fmtList(xs []float64, f string) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s + "]"
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
