// Command perfbench is the repository's served-routing benchmark. It
// launches gcserved (two members for cross-range) as separate
// processes, drives one workload over loopback gcwire from this
// process, checks every answer, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, from the same served run plus an
// in-process run that times each layer's public calls.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinFlag {
		cpu, err := strconv.Atoi(os.Args[2])
		if err == nil {
			spinMain(cpu)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name (see config.json)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the gcserved binary")
		scratch = flag.String("scratch", ".bench_build/tmp", "directory for journals and span dumps")
	)
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(2)
	}()

	res, err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *bin, *scratch)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(out io.Writer, name string, seed int64, seconds float64, traced bool, bin, scratch string) (*result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	w, ok := cfg.Workloads[name]
	if !ok {
		names := make([]string, 0, len(cfg.Workloads))
		for n := range cfg.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(bin + "/gcserved"); err != nil {
		return nil, fmt.Errorf("no gcserved binary: %w (run through run.sh)", err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	b := newBench(name, &w, seed, seconds, bin, scratch, out)
	srvCPUs, genCPUs := cpuSplit()
	procs := min(runtime.NumCPU(), connections)
	if genCPUs != nil {
		if err := pinSelf(genCPUs); err != nil {
			return nil, err
		}
		b.serverCPUs = srvCPUs
		procs = min(len(genCPUs), connections)
	}
	runtime.GOMAXPROCS(procs)
	if genCPUs != nil {
		stop := startSpinners(append(append([]int(nil), srvCPUs...), genCPUs...))
		defer stop()
	}
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %.0fs, %s, %d CPUs (servers on %v, generator on %v), loopback only\n",
		name, seed, seconds, runtime.Version(), runtime.NumCPU(), srvCPUs, genCPUs)
	e2e, err := b.served(traced)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if traced {
		layers, err := b.layerRun(e2e)
		if err != nil {
			return nil, err
		}
		b.printLayers(e2e, layers)
		res.Metrics = layers.metrics
	} else {
		res.Metrics = e2e.metrics
	}
	b.printEndToEnd(e2e)
	res.Attempted = b.attempted
	res.Failed = b.fails.total()
	res.Correct = b.chk.wrong.Load() == 0 && b.problem == ""
	if !res.Correct {
		fmt.Fprintf(out, "INCORRECT: %s%s\n", b.chk.firstError(), b.problem)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no infinities: a latency every request of which was
			// lost is reported as the largest finite value.
			m.Value = math.MaxFloat64
			res.Metrics[k] = m
		}
	}
	return res, nil
}
