package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
)

// bench is one run of one workload.
type bench struct {
	name    string
	w       *workload
	seed    int64
	seconds float64
	bin     string
	scratch string
	out     io.Writer

	in   *inputs
	book *epochBook
	chk  *checker
	// base is the epoch after setup: 1 with a static fault batch, else 0.
	base uint64

	attempted int64
	fails     failed
	problem   string // a failed server-side check, if any
	deploys   int

	// serverCPUs are the CPUs the servers run on (nil: unpinned).
	serverCPUs []int
}

func newBench(name string, w *workload, seed int64, seconds float64, bin, scratch string, out io.Writer) *bench {
	b := &bench{name: name, w: w, seed: seed, seconds: seconds, bin: bin, scratch: scratch, out: out}
	b.chk = newChecker(gc.New(w.N, w.Alpha), nil, seed)
	b.chk.cluster = w.Members == 2
	return b
}

// setInputs makes round i's inputs from the run's seed. Every round
// draws its own working set, fault set and churn, so a run measures the
// workload over ten draws of its inputs rather than one.
func (b *bench) setInputs(i int) {
	w := b.w
	// Enough churn batches for one round at the fixed rate, with room to
	// spare.
	churn := int(w.ChurnRate*b.seconds*2/rounds) + 64
	b.in = makeInputs(w, b.seed*1000+int64(i), churn)
	b.book = newEpochBook(b.in.cube)
	b.base = 0
	if b.in.static != nil {
		b.base = 1
		b.book.put(1, b.in.staticSet)
	}
	cur := b.book.get(b.base)
	for j, batch := range b.in.churn {
		cur = applyOps(cur, batch)
		b.book.put(b.base+uint64(j)+1, cur)
	}
	b.chk.book = b.book
}

// count adds a phase's requests to the run totals.
func (b *bench) count(attempted int64, f failed) {
	b.attempted += attempted
	b.fails.add(f)
}

func (b *bench) flagProblem(format string, args ...any) {
	if b.problem == "" {
		b.problem = fmt.Sprintf(format, args...)
	}
}

// deployment is the running server side of a run.
type deployment struct {
	servers []*server
	ctls    []*serve.WireClient // one control connection per member
	conns   []*benchConn        // load connections to the entry member
	journal string
}

func (d *deployment) entry() string { return d.servers[0].wireAddr }

// deploy launches the workload's servers, applies its static faults,
// and returns once the first route is answered. The time from launch
// to that answer is the set-up time. A cluster member whose port, picked
// free just before, was taken by another socket before it could bind it
// fails to start; the launch is then repeated on fresh ports.
func (b *bench) deploy(env []string) (*deployment, float64, error) {
	for attempt := 1; ; attempt++ {
		d, setup, err := b.launch(env)
		if err == nil || attempt == 5 || !strings.Contains(err.Error(), "address already in use") {
			return d, setup, err
		}
	}
}

func (b *bench) launch(env []string) (*deployment, float64, error) {
	b.deploys++
	w := b.w
	t0 := time.Now()
	args := []string{"-n", strconv.Itoa(int(w.N)), "-alpha", strconv.Itoa(int(w.Alpha)), "-addr", "127.0.0.1:0"}
	args = append(args, w.serverFlags()...)
	d := &deployment{}
	if w.Journal {
		d.journal = filepath.Join(b.scratch, fmt.Sprintf("journal-%d-%d", os.Getpid(), b.deploys))
		if err := os.RemoveAll(d.journal); err != nil {
			return nil, 0, err
		}
		args = append(args, "-journal-dir", d.journal)
	}
	var memberArgs [][]string
	if w.Members == 2 {
		a, err1 := freePort()
		c, err2 := freePort()
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("pick member ports: %v %v", err1, err2)
		}
		half := 1 << w.Alpha / 2
		ranges := fmt.Sprintf("0-%d@%s,%d-%d@%s", half-1, a, half, 1<<w.Alpha-1, c)
		for _, addr := range []string{a, c} {
			memberArgs = append(memberArgs, append(append([]string(nil), args...),
				"-wire-addr", addr, "-advertise", addr, "-class-ranges", ranges))
		}
	} else {
		memberArgs = [][]string{append(args, "-wire-addr", "127.0.0.1:0")}
	}
	for _, ma := range memberArgs {
		s, err := startServer(b.bin, ma, env, b.serverCPUs)
		if err != nil {
			b.teardown(d)
			return nil, 0, err
		}
		d.servers = append(d.servers, s)
	}
	for _, s := range d.servers {
		ctl, err := serve.DialWire(s.wireAddr)
		if err != nil {
			b.teardown(d)
			return nil, 0, fmt.Errorf("dial control connection: %w", err)
		}
		d.ctls = append(d.ctls, ctl)
	}
	b.chk.acked.Store(0)
	b.chk.sent.Store(0)
	if b.in.static != nil {
		b.chk.sent.Store(1)
		resp, err := d.ctls[0].ApplyFaults(b.in.static)
		b.count(1, failed{})
		if err != nil {
			b.teardown(d)
			return nil, 0, fmt.Errorf("apply static faults: %w", err)
		}
		if resp.Epoch != 1 || resp.Applied != len(b.in.static) {
			b.chk.fail("static fault batch acked as epoch %d with %d ops, want epoch 1 with %d", resp.Epoch, resp.Applied, len(b.in.static))
		}
		b.chk.acked.Store(1)
	}
	for i := 0; i < connections; i++ {
		bc, err := dialBench(d.entry())
		if err != nil {
			b.teardown(d)
			return nil, 0, fmt.Errorf("dial load connection: %w", err)
		}
		d.conns = append(d.conns, bc)
	}
	// The first route: in cluster mode one whose source another member
	// owns, so the answer needs both members up.
	var owner func(gc.NodeID) bool
	if w.Members == 2 {
		half := 1 << w.Alpha / 2
		owner = func(v gc.NodeID) bool { return int(b.in.cube.EndingClass(v)) >= half }
	}
	p := b.in.healthyPair(b.in.staticSet, rand.New(rand.NewSource(b.seed+int64(b.deploys))), owner)
	_, f := probe(d.conns[0], []op{{kind: opRoute, src: p.src, dst: p.dst}}, b.chk)
	b.count(1, f)
	setup := time.Since(t0).Seconds()
	if f.total() > 0 {
		b.teardown(d)
		return nil, 0, fmt.Errorf("first route failed: %v", f)
	}
	return d, setup, nil
}

// teardown closes the connections and stops every server, recording a
// server that does not drain cleanly.
func (b *bench) teardown(d *deployment) {
	for _, bc := range d.conns {
		bc.c.Close()
	}
	for _, c := range d.ctls {
		_ = c.Close()
	}
	for _, s := range d.servers {
		if err := s.stop(); err != nil {
			b.flagProblem("%v", err)
		}
	}
	if d.journal != "" {
		_ = os.RemoveAll(d.journal)
	}
}

// fresh replaces every load connection with a new one.
func (b *bench) fresh(d *deployment) error {
	for _, bc := range d.conns {
		bc.broken.Store(true)
	}
	return b.redial(d)
}

// redial replaces any load connection left in an unknown state.
func (b *bench) redial(d *deployment) error {
	for i, bc := range d.conns {
		if !bc.broken.Load() {
			continue
		}
		bc.c.Close()
		nc, err := dialBench(d.entry())
		if err != nil {
			return err
		}
		d.conns[i] = nc
	}
	return nil
}

// warm fills the route caches with the working set, then runs the mix
// closed-loop briefly so the server's pools and heap reach steady
// state. Nothing here is timed.
func (b *bench) warm(d *deployment) {
	if ps := b.in.pairs; ps != nil {
		next := 0
		r := runClosed(d.conns, func(int) (op, bool) {
			if next >= len(ps) {
				return op{}, false
			}
			p := ps[next]
			next++
			return op{kind: opRoute, src: p.src, dst: p.dst}, true
		}, inFlight, time.Minute, b.chk)
		b.count(r.sent, r.failed)
	}
	gens := b.gens(1)
	r := runClosed(d.conns, func(ci int) (op, bool) { return gens[ci].next(), true }, inFlight, 100*time.Millisecond, b.chk)
	b.count(r.sent, r.failed)
	ops := newGenerator(b.w, b.in, 2).ops(int(b.w.OpenRate * 0.1))
	o := runOpen(d.conns, openSpec{ops: ops, rate: b.w.OpenRate}, b.chk)
	b.count(int64(o.sent), o.failed)
}

// gens returns one generator per connection for a numbered stream.
func (b *bench) gens(stream int64) []*generator {
	gs := make([]*generator, connections)
	for i := range gs {
		gs[i] = newGenerator(b.w, b.in, stream*16+int64(i))
	}
	return gs
}

// scrape is a summed metrics scrape of every member.
type scrape struct {
	served, accepted, rejected, fast, misses, coalesced int64
	appends, fsyncs, forwarded                          int64
}

func (b *bench) scrape(d *deployment) (scrape, error) {
	var s scrape
	for _, c := range d.ctls {
		m, err := c.Metrics()
		if err != nil {
			return s, fmt.Errorf("metrics scrape: %w", err)
		}
		s.served += m.Served
		s.accepted += m.Accepted
		s.rejected += m.Rejected
		s.fast += m.FastPathHits
		s.coalesced += m.Coalesced
		for _, sh := range m.PerShard {
			s.misses += sh.CacheMisses
		}
		if m.Journal != nil {
			s.appends += m.Journal.Appends
			s.fsyncs += m.Journal.Fsyncs
		}
		if m.Cluster != nil {
			s.forwarded += m.Cluster.Forwarded
		}
	}
	return s, nil
}

func (s scrape) plus(o scrape) scrape {
	return scrape{
		served: s.served + o.served, accepted: s.accepted + o.accepted, rejected: s.rejected + o.rejected,
		fast: s.fast + o.fast, misses: s.misses + o.misses, coalesced: s.coalesced + o.coalesced,
		appends: s.appends + o.appends, fsyncs: s.fsyncs + o.fsyncs, forwarded: s.forwarded + o.forwarded,
	}
}

func (s scrape) minus(o scrape) scrape {
	return scrape{
		served: s.served - o.served, accepted: s.accepted - o.accepted, rejected: s.rejected - o.rejected,
		fast: s.fast - o.fast, misses: s.misses - o.misses, coalesced: s.coalesced - o.coalesced,
		appends: s.appends - o.appends, fsyncs: s.fsyncs - o.fsyncs, forwarded: s.forwarded - o.forwarded,
	}
}

// churner applies the workload's fault batches at a fixed rate on the
// control connection, beside the reads.
type churner struct {
	stop chan struct{}
	done chan struct{}
	acks []int64 // ack latency from due time, ns
	sent int64
	f    failed
	err  error
}

func (b *bench) startChurn(ctl *serve.WireClient) *churner {
	c := &churner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		sl := newSleeper()
		defer sl.close()
		interval := 1e9 / b.w.ChurnRate
		start := nowNs()
		for j, batch := range b.in.churn {
			due := start + int64(float64(j)*interval)
			for {
				select {
				case <-c.stop:
					return
				default:
				}
				now := nowNs()
				if now >= due {
					break
				}
				sl.sleep(min(due-now, int64(5*time.Millisecond)))
			}
			epoch := b.base + uint64(j) + 1
			b.chk.sent.Store(epoch)
			c.sent++
			resp, err := ctl.ApplyFaults(batch)
			t := nowNs()
			if err != nil {
				c.f.connErrs++
				c.err = err
				return
			}
			if resp.Epoch != epoch || resp.Applied != len(batch) {
				b.chk.fail("fault batch %d acked as epoch %d with %d ops, want epoch %d with %d", j, resp.Epoch, resp.Applied, epoch, len(batch))
				c.f.wrong++
			}
			b.chk.acked.Store(epoch)
			c.acks = append(c.acks, t-due)
		}
		c.err = fmt.Errorf("churn ran out of precomputed batches")
	}()
	return c
}

// finish stops the churn, adds its requests to the run totals and
// returns the acks.
func (c *churner) finish(b *bench) ([]int64, error) {
	close(c.stop)
	<-c.done
	b.count(c.sent, c.f)
	if c.err != nil {
		return nil, fmt.Errorf("fault churn: %w", c.err)
	}
	return c.acks, nil
}

// e2e is what the served run measured.
type e2e struct {
	metrics map[string]metric

	// Per-round figures, printed to show how the rounds differ.
	setups, p50s, collP50s []float64
	rpss, cpus, genCPUs    []float64
	rps, cpuPerOp, genCPU  float64 // medians of the rounds
	rssMB                  float64
	// Quantiles pooled over every round's samples, in µs (acks in ms).
	p50, p90, p99, p999     float64
	collP50, collP90        float64
	collP99                 float64
	ackP50, ackP90, ackP99  float64
	lagP50, lagP99          float64
	routeSamples            int
	collSamples, ackSamples int
	steal                   float64 // share of CPU time the hypervisor took from the CPUs
	open                    scrape  // metrics deltas over the open-loop phases
	openRoutes              int64   // routes the client sent in them
	scale2v1                float64 // route_rps with server GOMAXPROCS=2 over =1 (traced runs)
}

// rounds is how many fresh server deployments a run measures on; every
// phase runs a slice of its work in each round, and every round draws
// its own inputs from the seed. On a small shared machine the host's
// load makes the same work take up to twice as long from one fraction
// of a second to the next, so a run reports medians: latency quantiles
// over the samples of every round pooled, rates and CPU costs as the
// median of the rounds. A median over many short slices moves far less
// from run to run than a lower quantile or a mean would.
const rounds = 20

// round is what one deployment measured.
type round struct {
	setup  float64
	lats   []int64 // open-loop route latencies from due time, ns
	lags   []int64
	open   scrape
	sat    saturation
	colls  []int64
	acks   []int64
	rssKiB int64
}

// served runs the workload against real server processes.
func (b *bench) served(traced bool) (*e2e, error) {
	r := &e2e{}
	steal0, total0 := hostSteal()
	var allLat, allLag, allColl, allAck []int64
	var rss []float64
	for i := 0; i < rounds; i++ {
		rd, err := b.runRound(i)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, rd.setup)
		r.p50s = append(r.p50s, nsQuantiles(rd.lats, 0.5)[0])
		r.collP50s = append(r.collP50s, nsQuantiles(rd.colls, 0.5)[0])
		r.rpss = append(r.rpss, rd.sat.rps)
		r.cpus = append(r.cpus, rd.sat.cpuPerOp)
		r.genCPUs = append(r.genCPUs, rd.sat.genCPU)
		rss = append(rss, float64(rd.rssKiB)/1024)
		r.open = r.open.plus(rd.open)
		allLat = append(allLat, rd.lats...)
		allLag = append(allLag, rd.lags...)
		allColl = append(allColl, rd.colls...)
		allAck = append(allAck, rd.acks...)
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	r.rps, r.cpuPerOp, r.genCPU = median(r.rpss), median(r.cpus), median(r.genCPUs)
	r.rssMB = median(rss)
	q := nsQuantiles(allLat, 0.5, 0.9, 0.99, 0.999)
	r.p50, r.p90, r.p99, r.p999 = q[0], q[1], q[2], q[3]
	q = nsQuantiles(allColl, 0.5, 0.9, 0.99)
	r.collP50, r.collP90, r.collP99 = q[0], q[1], q[2]
	q = nsQuantiles(allAck, 0.5, 0.9, 0.99)
	r.ackP50, r.ackP90, r.ackP99 = q[0]/1e3, q[1]/1e3, q[2]/1e3
	q = nsQuantiles(allLag, 0.5, 0.99)
	r.lagP50, r.lagP99 = q[0], q[1]
	r.routeSamples, r.collSamples, r.ackSamples = len(allLat), len(allColl), len(allAck)
	r.openRoutes = int64(r.routeSamples)

	if traced {
		// Core scaling: saturation against unpinned servers with one CPU
		// and with two.
		rps1, err := b.scaleRPS("GOMAXPROCS=1")
		if err != nil {
			return nil, err
		}
		rps2, err := b.scaleRPS("GOMAXPROCS=2")
		if err != nil {
			return nil, err
		}
		if rps1 > 0 {
			r.scale2v1 = rps2 / rps1
		}
	}

	// The end-to-end metrics, as BENCHMARK.json lists them. The tails
	// (p90, p99), the fault acks and the generator lag are
	// printed but not reported: on a small shared machine the host's
	// steal bursts and the disk's fsync stalls move them, on at least one
	// workload, by more than any useful bound from run to run (see
	// baseline.json).
	r.metrics = map[string]metric{
		"setup_s":              {median(r.setups), "s"},
		"route_p50_us":         {r.p50, "us"},
		"route_rps":            {r.rps, "1/s"},
		"answered_share":       {b.answeredShare(), "ratio"},
		"collective_p50_us":    {r.collP50, "us"},
		"server_cpu_us_per_op": {r.cpuPerOp, "us"},
		"server_rss_mb":        {r.rssMB, "MiB"},
	}
	return r, nil
}

// runRound deploys fresh servers and runs one slice of every phase
// against them: the open loop at the fixed rate, closed-loop saturation
// and the collective probe.
func (b *bench) runRound(i int) (*round, error) {
	w := b.w
	rd := &round{}
	b.setInputs(i)
	d, setup, err := b.deploy(nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			b.teardown(d)
		}
	}()
	rd.setup = setup
	b.warm(d)

	// Churn runs beside the open loop only. In the closed loop, how many
	// reads fit between two mutations would feed back into how many of
	// them hit the cache, so the saturation rate would measure that loop
	// rather than the server.
	var ch *churner
	if w.ChurnRate > 0 {
		ch = b.startChurn(d.ctls[0])
	}

	// Open loop at the fixed rate.
	m0, err := b.scrape(d)
	if err != nil {
		return nil, err
	}
	ops := newGenerator(w, b.in, int64(100+i)).ops(int(w.OpenRate * b.slice(openShare).Seconds()))
	open := runOpen(d.conns, openSpec{ops: ops, rate: w.OpenRate}, b.chk)
	b.count(int64(open.sent), open.failed)
	for k := 0; k < open.sent; k++ {
		if ops[k].kind == opRoute {
			rd.lats = append(rd.lats, open.lat[k])
		}
	}
	rd.lags = open.lag
	m1, err := b.scrape(d)
	if err != nil {
		return nil, err
	}
	rd.open = m1.minus(m0)
	if ch != nil {
		if rd.acks, err = ch.finish(b); err != nil {
			return nil, err
		}
	}
	if err := b.fresh(d); err != nil {
		return nil, err
	}

	// Closed-loop saturation.
	if rd.sat, err = b.saturate(d, int64(200+i), b.slice(saturationShare)); err != nil {
		return nil, err
	}

	// Collective probe: one at a time, so each reply time is service
	// time.
	cg := newGenerator(w, b.in, int64(400+i))
	cops := make([]op, w.CollectiveProbe/rounds)
	for k := range cops {
		cops[k] = cg.collective()
	}
	var f failed
	rd.colls, f = probe(d.conns[0], cops, b.chk)
	b.count(int64(len(cops)), f)

	// Conservation at quiescence, then peak memory.
	final, err := b.scrape(d)
	if err != nil {
		return nil, err
	}
	if final.accepted != final.served {
		b.flagProblem("metrics at quiescence: accepted=%d served=%d", final.accepted, final.served)
	}
	for _, s := range d.servers {
		k, err := s.peakRSSKiB()
		if err != nil {
			return nil, err
		}
		rd.rssKiB += k
	}
	b.teardown(d)
	d = nil
	return rd, nil
}

// slice is one round's share of a phase.
func (b *bench) slice(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second) / rounds)
}

func (b *bench) answeredShare() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.attempted-b.fails.total()) / float64(b.attempted)
}

// saturation is what one closed-loop phase measured.
type saturation struct {
	rps      float64 // completions per second
	cpuPerOp float64 // server CPU time per request sent, µs
	// genCPU is the generator's own CPU time over the phase as a share
	// of the CPUs it may use: near 1, the generator rather than the
	// server limits rps.
	genCPU float64
}

// saturate runs the closed-loop phase for dur.
func (b *bench) saturate(d *deployment, stream int64, dur time.Duration) (saturation, error) {
	var s saturation
	gens := b.gens(stream)
	t0, err := b.ticks(d)
	if err != nil {
		return s, err
	}
	g0, w0 := selfCPU(), nowNs()
	sat := runClosed(d.conns, func(ci int) (op, bool) { return gens[ci].next(), true }, inFlight, dur, b.chk)
	g1, w1 := selfCPU(), nowNs()
	t1, err := b.ticks(d)
	if err != nil {
		return s, err
	}
	b.count(sat.sent, sat.failed)
	if err := b.fresh(d); err != nil {
		return s, err
	}
	if sat.sent > 0 {
		s.cpuPerOp = float64(t1-t0) * float64(clockTick) / 1e3 / float64(sat.sent)
	}
	s.rps = sat.rps()
	s.genCPU = float64(g1-g0) / float64(w1-w0) / float64(runtime.GOMAXPROCS(0))
	return s, nil
}

// selfCPU is this process's user and system CPU time, in ns.
func selfCPU() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// scaleRPS measures saturation against unpinned servers started with
// env, over a few fresh deployments.
func (b *bench) scaleRPS(env string) (float64, error) {
	saved := b.serverCPUs
	b.serverCPUs = nil
	defer func() { b.serverCPUs = saved }()
	var rates []float64
	for i := 0; i < 3; i++ {
		d, _, err := b.deploy([]string{env})
		if err != nil {
			return 0, err
		}
		b.warm(d)
		sat, err := b.saturate(d, int64(500+i), b.slice(saturationShare))
		b.teardown(d)
		if err != nil {
			return 0, err
		}
		rates = append(rates, sat.rps)
	}
	return median(rates), nil
}

func (b *bench) ticks(d *deployment) (int64, error) {
	var t int64
	for _, s := range d.servers {
		v, err := s.cpuTicks()
		if err != nil {
			return 0, err
		}
		t += v
	}
	return t, nil
}
