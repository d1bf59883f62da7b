package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"gaussiancube/internal/cluster"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/journal"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// The traced run: one process feeds the workload's seeded inputs
// through each layer's public function in the order the served path
// calls them, timing every call from outside. Nothing inside the
// program is instrumented.

// span is one timed call. Spans of one request share req; a layer span's
// parent is its request's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Req    int32  `json:"req"`
}

// tracer holds spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced pass pays only the branch.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: nowNs(), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = nowNs()
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the self time of every span of that
// name (its duration less the time its children cover), in ns, and the
// per-request root durations.
func (t *tracer) selfTimes() (map[string][]int64, []int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]int64{}
	var roots []int64
	for i, s := range t.spans {
		self[s.Name] = append(self[s.Name], s.End-s.Start-child[i])
		if s.Parent < 0 {
			roots = append(roots, s.End-s.Start)
		}
	}
	return self, roots
}

// Layer span names, in pipeline order.
var pipelineLayers = []string{"wire.decode", "cluster.forward", "serve.fast", "serve.submit", "wire.encode"}

// inproc is the in-process server side of the traced run.
type inproc struct {
	b     *bench
	srv   *serve.Server // the entry server (member A in cluster mode)
	peer  *serve.Server
	wss   []*serve.WireServer
	nodes []*cluster.Node
	node  *cluster.Node // member A's cluster node
	dirs  []string
	cur   *fault.Set
}

func (b *bench) newInproc() (*inproc, error) {
	w := b.w
	p := &inproc{b: b, cur: b.book.get(0)}
	mk := func() (*serve.Server, error) {
		cfg := serve.Config{Cube: b.in.cube, Shards: serverShards, Repair: w.Repair, Trees: w.Trees}
		if w.Journal {
			dir := filepath.Join(b.scratch, fmt.Sprintf("layers-journal-%d-%d", os.Getpid(), len(p.dirs)))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			p.dirs = append(p.dirs, dir)
			cfg.Journal = &serve.JournalConfig{Dir: dir, Sync: 2 * time.Millisecond, SnapshotEvery: 4096}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		if w.Journal {
			if err := srv.WaitJournal(context.Background()); err != nil {
				return nil, err
			}
		}
		return srv, nil
	}
	var err error
	if p.srv, err = mk(); err != nil {
		return nil, err
	}
	if w.Members == 2 {
		if p.peer, err = mk(); err != nil {
			p.close()
			return nil, err
		}
		if err := p.startCluster(); err != nil {
			p.close()
			return nil, err
		}
	}
	if b.in.static != nil {
		if _, _, err := p.srv.ApplyFaults(b.in.static); err != nil {
			p.close()
			return nil, err
		}
		p.cur = b.in.staticSet
	}
	for _, pr := range b.in.pairs {
		if _, err := p.srv.Submit(context.Background(), pr.src, pr.dst); err != nil {
			p.close()
			return nil, fmt.Errorf("warm: %w", err)
		}
	}
	return p, nil
}

// startCluster serves both members on loopback and joins them, member A
// owning the lower half of the ending classes.
func (p *inproc) startCluster() error {
	var addrs []string
	for _, s := range []*serve.Server{p.srv, p.peer} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ws := serve.NewWireServer(s, ln)
		go func() { _ = ws.Serve() }()
		p.wss = append(p.wss, ws)
		addrs = append(addrs, ln.Addr().String())
	}
	half := 1 << p.b.w.Alpha / 2
	topo, err := cluster.New(p.b.in.cube, []cluster.Member{
		{Addr: addrs[0], Lo: 0, Hi: half - 1},
		{Addr: addrs[1], Lo: half, Hi: 1<<p.b.w.Alpha - 1},
	})
	if err != nil {
		return err
	}
	for i, s := range []*serve.Server{p.srv, p.peer} {
		n, err := cluster.Start(cluster.Config{Server: s, Topology: topo, Self: addrs[i]})
		if err != nil {
			return err
		}
		p.nodes = append(p.nodes, n)
	}
	p.node = p.nodes[0]
	return nil
}

func (p *inproc) close() {
	for _, ws := range p.wss {
		_ = ws.Close()
	}
	for _, n := range p.nodes {
		n.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range []*serve.Server{p.srv, p.peer} {
		if s != nil {
			_ = s.Shutdown(ctx)
		}
	}
	for _, d := range p.dirs {
		_ = os.RemoveAll(d)
	}
}

// apply applies a fault batch through Server.ApplyFaults and returns
// its duration in ns.
func (p *inproc) apply(ops []serve.FaultOp) (int64, error) {
	t := nowNs()
	_, _, err := p.srv.ApplyFaults(ops)
	d := nowNs() - t
	if err != nil {
		return 0, err
	}
	p.cur = applyOps(p.cur, ops)
	return d, nil
}

// pass is what one pipeline pass measured.
type pass struct {
	roots    []int64 // per-request duration, ns
	misses   []pair  // pairs that fell through to SubmitTree
	applies  []int64 // ApplyFaults durations, ns
	bytes    int64
	requests int
	mallocs  uint64
	gcShare  float64
}

// pipeline feeds routes through the wire decode, the cluster forward or
// the fast path with its Submit fallback, and the wire encode, exactly
// as the gcwire front end calls them. With churn, a fault batch is
// applied every churnEvery requests.
func (p *inproc) pipeline(ops []op, tr *tracer, churn [][]serve.FaultOp, churnEvery int) (*pass, error) {
	ctx := context.Background()
	ps := &pass{}
	var req, out []byte
	var rr wire.RouteReq
	var res wire.RouteResult
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, cpu0 := gcCPU()
	for k := range ops {
		o := &ops[k]
		if o.kind != opRoute {
			continue
		}
		if churnEvery > 0 && ps.requests%churnEvery == 0 && len(churn) > 0 {
			d, err := p.apply(churn[0])
			if err != nil {
				return nil, err
			}
			churn = churn[1:]
			ps.applies = append(ps.applies, d)
		}
		id := int32(ps.requests)
		ps.requests++
		req = wire.AppendRouteReq(req[:0], uint64(id), wire.RouteReq{Src: o.src, Dst: o.dst})

		t0 := nowNs()
		root := tr.begin("route", -1, id)
		s := tr.begin("wire.decode", root, id)
		h, err := wire.ParseHeader(req)
		if err == nil {
			err = wire.DecodeRouteReq(req[wire.HeaderSize:wire.HeaderSize+int(h.Len)], &rr)
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
		var resp *serve.Response
		var ans serve.CachedAnswer
		hit := false
		if p.node != nil && !p.node.Owns(rr.Src) {
			s = tr.begin("cluster.forward", root, id)
			resp, err = p.node.Forward(ctx, rr.Src, rr.Dst, core.TreeAuto)
			tr.end(s)
		} else {
			s = tr.begin("serve.fast", root, id)
			ans, hit = p.srv.FastRouteTree(rr.Src, rr.Dst, core.TreeAuto)
			tr.end(s)
			if !hit {
				ps.misses = append(ps.misses, pair{rr.Src, rr.Dst})
				s = tr.begin("serve.submit", root, id)
				resp, err = p.srv.SubmitTree(ctx, rr.Src, rr.Dst, core.TreeAuto)
				tr.end(s)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("route %d->%d: %w", rr.Src, rr.Dst, err)
		}
		s = tr.begin("wire.encode", root, id)
		out = encodeResult(out[:0], h.ID, hit, &ans, resp, &res)
		tr.end(s)
		tr.end(root)
		ps.roots = append(ps.roots, nowNs()-t0)
		ps.bytes += int64(len(req) + len(out))
	}
	runtime.ReadMemStats(&ms)
	ps.mallocs = ms.Mallocs - mallocs
	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		ps.gcShare = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return ps, nil
}

// encodeResult encodes a verdict the way the gcwire front end does.
func encodeResult(buf []byte, id uint64, hit bool, ans *serve.CachedAnswer, resp *serve.Response, res *wire.RouteResult) []byte {
	*res = wire.RouteResult{Reason: res.Reason[:0], Path: res.Path[:0]}
	switch {
	case hit:
		res.Outcome, res.Flags = uint8(core.OutcomeDelivered), wire.FlagCacheHit
		if ans.DetourHops > 0 {
			res.Outcome = uint8(core.OutcomeDeliveredDegraded)
			res.Flags |= wire.FlagDegraded
		}
		res.Hops, res.Detour, res.Epoch, res.Path = uint16(len(ans.Path)-1), uint16(ans.DetourHops), ans.Epoch, ans.Path
	case resp.Err != nil:
		code := wire.CodeBadRequest
		if errors.Is(resp.Err, core.ErrFaultyEndpoint) {
			code = wire.CodeFaultyNode
		}
		return wire.AppendError(buf, id, code, resp.Err.Error())
	default:
		rep := resp.Report
		res.Outcome, res.Hops, res.Detour, res.Epoch = uint8(rep.Outcome), uint16(rep.Hops), uint16(rep.DetourHops), resp.Epoch
		res.Reason = append(res.Reason, rep.Reason...)
		res.Path = rep.Path
	}
	return wire.AppendRouteResult(buf, id, res)
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() (gcSec, totalSec float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// planner builds the router the server's shards build for the current
// epoch: same fault set, repair map and tree set.
func (p *inproc) planner(trees bool) *core.Router {
	w := p.b.w
	var opts []core.Option
	if p.cur.Count() > 0 {
		opts = append(opts, core.WithFaults(p.cur))
		if w.Repair {
			h := repair.NewHealth(p.b.in.cube)
			h.Rebuild(p.cur)
			opts = append(opts, core.WithRepair(h))
		}
	}
	if trees && w.Trees > 1 {
		ts, err := mtree.New(p.b.in.cube, w.Trees)
		if err == nil {
			opts = append(opts, core.WithTrees(ts))
		}
	}
	return core.NewRouter(p.b.in.cube, opts...)
}

// layerResult is the traced run's outcome.
type layerResult struct {
	metrics map[string]metric
	self    map[string][]int64
	calls   map[string]int
	rootP50 float64
	spans   string
}

// layerRun runs the traced in-process pass and assembles the per-layer
// metrics, with the served run's scrape shares and scaling.
func (b *bench) layerRun(r *e2e) (*layerResult, error) {
	w := b.w
	p, err := b.newInproc()
	if err != nil {
		return nil, err
	}
	defer p.close()

	n := int(min(20000, w.OpenRate))
	var churn [][]serve.FaultOp
	churnEvery := 0
	if w.ChurnRate > 0 {
		churn = b.in.churn
		churnEvery = int(w.OpenRate / w.ChurnRate)
	}
	// Untraced first, then traced, on two streams of the same mix.
	untraced, err := p.pipeline(newGenerator(w, b.in, 600).ops(n), &tracer{}, churn, churnEvery)
	if err != nil {
		return nil, err
	}
	if len(churn) > len(untraced.applies) {
		churn = churn[len(untraced.applies):]
	}
	tr := &tracer{on: true, spans: make([]span, 0, 6*n)}
	traced, err := p.pipeline(newGenerator(w, b.in, 601).ops(n), tr, churn, churnEvery)
	if err != nil {
		return nil, err
	}
	lr := &layerResult{calls: map[string]int{}}
	var roots []int64
	lr.self, roots = tr.selfTimes()
	for name, xs := range lr.self {
		lr.calls[name] = len(xs)
	}
	lr.spans = filepath.Join(b.scratch, fmt.Sprintf("spans-%s-%d.jsonl", b.name, b.seed))
	if err := tr.write(lr.spans); err != nil {
		return nil, err
	}

	// Per-request self time of each layer, zero where it did not run,
	// so the layer p50s add up against the per-request p50.
	perReq := map[string][]int64{}
	for _, name := range pipelineLayers {
		perReq[name] = make([]int64, traced.requests)
	}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			perReq[s.Name][s.Req] += s.End - s.Start
		}
	}
	lr.rootP50 = p50us(roots)
	var attributed float64
	for _, name := range pipelineLayers {
		attributed += p50us(perReq[name])
	}
	untracedP50 := p50us(untraced.roots)

	// The planner on the same misses, with the server's options.
	planner := p.planner(true)
	var plans []int64
	var detours, fallbacks int
	for _, pr := range traced.misses {
		t := nowNs()
		rep, err := planner.RouteContext(context.Background(), pr.src, pr.dst)
		plans = append(plans, nowNs()-t)
		if err == nil && rep.DetourHops > 0 {
			detours++
		}
		if err == nil && rep.UsedFallback {
			fallbacks++
		}
	}
	// Collective planning, on the collective router (no tree set).
	coll := p.planner(false)
	cg := newGenerator(w, b.in, 602)
	var mcast, bcast []int64
	for len(mcast) < 200 || len(bcast) < 20 {
		o := cg.collective()
		t := nowNs()
		if o.kind == opBroadcast {
			if len(bcast) >= 20 {
				continue
			}
			_, err = coll.BroadcastPlan(o.src)
			bcast = append(bcast, nowNs()-t)
		} else {
			if len(mcast) >= 200 {
				continue
			}
			_, err = coll.MulticastPlan(o.src, o.dests)
			mcast = append(mcast, nowNs()-t)
		}
		if err != nil {
			return nil, err
		}
	}

	// Fault mutation, journal commit and the whole ApplyFaults swap on
	// the workload's batches: its churn, or one node toggled.
	batches := churn
	if len(batches) == 0 {
		v := b.toggleNode()
		for i := 0; i < 200; i++ {
			verb := serve.OpInject
			if i%2 == 1 {
				verb = serve.OpRepair
			}
			batches = append(batches, []serve.FaultOp{{Op: verb, Kind: serve.KindNode, Node: v}})
		}
	}
	batches = batches[:min(200, len(batches))]
	var mutates, commits []int64
	cur := p.cur
	for _, batch := range batches {
		t := nowNs()
		next := applyOps(cur, batch)
		mutates = append(mutates, nowNs()-t)
		cur = next
	}
	var fsyncs float64
	if w.Journal {
		commits, fsyncs, err = b.journalCommits(b.book.get(b.base), b.in.churn[:min(200, len(b.in.churn))])
		if err != nil {
			return nil, err
		}
	}
	applies := append(untraced.applies, traced.applies...)
	if len(applies) == 0 {
		for _, batch := range batches {
			d, err := p.apply(batch)
			if err != nil {
				return nil, err
			}
			applies = append(applies, d)
		}
	}

	share := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	o := r.open
	submit := p50us(perReqNonzero(perReq["serve.submit"]))
	plan := p50us(plans)
	commitUS := p50us(commits)
	lr.metrics = map[string]metric{
		"wire.decode_ns":           {p50us(lr.self["wire.decode"]) * 1e3, "ns"},
		"wire.encode_ns":           {p50us(lr.self["wire.encode"]) * 1e3, "ns"},
		"wire.bytes_per_route":     {share(traced.bytes, int64(traced.requests)), "bytes"},
		"serve.fast_ns":            {p50us(hits(perReq["serve.fast"], perReq["serve.submit"])) * 1e3, "ns"},
		"serve.fast_hit_share":     {share(o.fast, o.served), "ratio"},
		"serve.cache_miss_share":   {share(o.misses, o.served), "ratio"},
		"serve.coalesced_share":    {share(o.coalesced, o.served), "ratio"},
		"serve.submit_miss_us":     {submit, "us"},
		"serve.queue_handoff_us":   {submit - plan, "us"},
		"serve.rejected_share":     {share(o.rejected, o.accepted+o.rejected), "ratio"},
		"serve.swap_us":            {p50us(applies) - p50us(mutates) - commitUS, "us"},
		"core.plan_ns":             {plan * 1e3, "ns"},
		"core.detour_share":        {share(int64(detours), int64(len(plans))), "ratio"},
		"core.fallback_share":      {share(int64(fallbacks), int64(len(plans))), "ratio"},
		"core.multicast_us":        {p50us(mcast), "us"},
		"core.broadcast_us":        {p50us(bcast), "us"},
		"fault.mutate_us":          {p50us(mutates), "us"},
		"journal.commit_us":        {commitUS, "us"},
		"journal.fsyncs_per_batch": {fsyncs, "count"},
		"cluster.forward_us":       {p50us(perReqNonzero(perReq["cluster.forward"])), "us"},
		"cluster.forwarded_share":  {share(o.forwarded, r.openRoutes), "ratio"},
		"proc.allocs_per_route":    {share(int64(untraced.mallocs), int64(untraced.requests)), "count"},
		"proc.gc_cpu_share":        {untraced.gcShare, "ratio"},
		"scale.rps_ratio_2v1":      {r.scale2v1, "ratio"},
		"loadgen.lag_p99_us":       {r.lagP99, "us"},
		"loadgen.sat_cpu_share":    {r.genCPU, "ratio"},
		"trace.unattributed_share": {(lr.rootP50 - attributed) / lr.rootP50, "ratio"},
		"trace.overhead_share":     {(lr.rootP50 - untracedP50) / untracedP50, "ratio"},
	}
	return lr, nil
}

// journalCommits commits batches, applied after base, to a fresh
// journal with the served sync policy, and returns their commit
// latencies and the fsyncs per batch. A non-empty base is committed
// first, untimed, as the journal starts from no faults.
func (b *bench) journalCommits(base *fault.Set, batches [][]serve.FaultOp) ([]int64, float64, error) {
	dir := filepath.Join(b.scratch, fmt.Sprintf("layers-commit-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(b.in.cube, dir, journal.Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		return nil, 0, err
	}
	epoch := uint64(0)
	commit := func(prev, next *fault.Set) (int64, error) {
		epoch++
		jb := journal.Batch{Epoch: epoch, FP: next.Fingerprint(), Events: journal.DiffEvents(prev, next, 0)}
		t := nowNs()
		err := j.Commit(jb)
		return nowNs() - t, err
	}
	if base.Count() > 0 {
		if _, err := commit(fault.NewSet(b.in.cube), base); err != nil {
			j.Close()
			return nil, 0, err
		}
	}
	f0 := j.Fsyncs()
	cur := base
	var lat []int64
	for _, batch := range batches {
		next := applyOps(cur, batch)
		d, err := commit(cur, next)
		if err != nil {
			j.Close()
			return nil, 0, err
		}
		lat = append(lat, d)
		cur = next
	}
	fsyncs := float64(j.Fsyncs()-f0) / float64(len(batches))
	return lat, fsyncs, j.Close()
}

// toggleNode is the node the layer run injects and repairs on a
// workload without churn: healthy in the static set.
func (b *bench) toggleNode() gc.NodeID {
	fs := b.book.get(b.base)
	rng := rand.New(rand.NewSource(b.seed + 99))
	for {
		v := gc.NodeID(rng.Intn(b.in.cube.Nodes()))
		if !fs.NodeFaulty(v) {
			return v
		}
	}
}

func p50us(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return nsQuantiles(ns, 0.5)[0]
}

func perReqNonzero(xs []int64) []int64 {
	var out []int64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// hits returns the fast-path times of requests that did not fall
// through to Submit.
func hits(fast, submit []int64) []int64 {
	var out []int64
	for i, x := range fast {
		if x > 0 && submit[i] == 0 {
			out = append(out, x)
		}
	}
	return out
}

// printLayers prints each layer's self time against the end-to-end p50,
// the per-layer metrics with their units, and what each should move.
func (b *bench) printLayers(r *e2e, l *layerResult) {
	out := b.out
	fmt.Fprintf(out, "\nlayers (traced in-process pass; spans in %s)\n", l.spans)
	fmt.Fprintf(out, "  %-16s %8s %12s %10s\n", "span", "calls", "self p50 us", "of e2e p50")
	names := make([]string, 0, len(l.self))
	for name := range l.self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := p50us(l.self[name])
		fmt.Fprintf(out, "  %-16s %8d %12.3f %9.1f%%\n", name, l.calls[name], p, 100*p/r.p50)
	}
	fmt.Fprintf(out, "  traced per-route p50 %.3f us; served route_p50_us %.1f us\n", l.rootP50, r.p50)
	o := r.open
	fmt.Fprintf(out, "  open-phase base counts: served %d, fast-path %d, cache misses %d, coalesced %d, accepted %d, rejected %d, journal appends %d fsyncs %d, forwarded %d of %d routes\n",
		o.served, o.fast, o.misses, o.coalesced, o.accepted, o.rejected, o.appends, o.fsyncs, o.forwarded, r.openRoutes)
	fmt.Fprintf(out, "\nper-layer (%s, seed %d)\n", b.name, b.seed)
	for _, k := range sortedKeys(l.metrics) {
		m := l.metrics[k]
		moves := b.w.Layers[k]
		if moves == "" {
			moves = "-"
		}
		fmt.Fprintf(out, "  %-26s %14.4f %-6s moves: %s\n", k, m.Value, m.Unit, moves)
	}
}
