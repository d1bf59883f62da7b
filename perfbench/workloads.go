package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
)

//go:embed config.json
var configJSON []byte

// config is config.json: the fixed rates, limits and sizes of every
// workload. Its "seed" and "held_out_seed" record the seed comparisons
// are tuned on and the one kept back to confirm them; the benchmark
// itself takes its seed from --seed.
type config struct {
	Workloads map[string]workload `json:"workloads"`
}

// The load shape every workload shares.
const (
	// connections is the number of load connections, and the most CPUs
	// the generator uses: two, the CPU count of the two-vCPU virtual
	// machine the baseline was measured on.
	connections = 2
	// inFlight is the closed loop's requests in flight per connection.
	inFlight = 64
	// serverShards keeps the server's shard count, and so its cache
	// capacity, at what two CPUs give by default, also when it runs on
	// one.
	serverShards = 2
)

// Each round's two timed phases split the run's --seconds in these
// shares.
const (
	openShare       = 0.5
	saturationShare = 0.5
)

// workload is one traffic mix and the server it runs against.
type workload struct {
	Why   string `json:"why"`
	N     uint   `json:"n"`
	Alpha uint   `json:"alpha"`
	// Repair and Trees are the server's -repair and -trees settings;
	// Members is 2 for a two-member cluster splitting the ending
	// classes; Journal turns on -journal-dir with the default group
	// commit.
	Repair  bool `json:"repair"`
	Trees   int  `json:"trees"`
	Members int  `json:"members"`
	Journal bool `json:"journal"`

	// Pairs is "working-set" (requests draw from a fixed seeded set of
	// WorkingSet pairs, warmed into the caches before timing) or
	// "uniform" (over all pairs). Mix is "uniform" over the working set,
	// or "hotspot": a share HotShare of requests goes to its first
	// HotPairs pairs.
	Pairs      string  `json:"pairs"`
	WorkingSet int     `json:"working_set"`
	Mix        string  `json:"mix"`
	HotPairs   int     `json:"hot_pairs"`
	HotShare   float64 `json:"hot_share"`
	// CollectiveEvery makes about one request in that many a multicast
	// or broadcast (0: routes only).
	CollectiveEvery int `json:"collective_every"`

	StaticFaults *struct {
		NodeShare float64 `json:"node_share"`
		ALinks    int     `json:"a_links"`
		BLinks    int     `json:"b_links"`
	} `json:"static_faults"`

	ChurnRate    float64 `json:"churn_rate"`
	ChurnMaxLive int     `json:"churn_max_live"`

	// OpenRate is the fixed open-loop rate the latencies are measured
	// at.
	OpenRate float64 `json:"open_rate"`

	CollectiveProbe int `json:"collective_probe"`

	// Layers maps each per-layer metric to the end-to-end metric it
	// should move on this workload, or to "-" where it should not move.
	Layers map[string]string `json:"layers"`
}

// serverFlags are the gcserved flags the workload's server runs with,
// beyond the cube and the listeners.
func (w *workload) serverFlags() []string {
	f := []string{"-shards", strconv.Itoa(serverShards)}
	if w.Repair {
		f = append(f, "-repair")
	}
	if w.Trees > 0 {
		f = append(f, "-trees", strconv.Itoa(w.Trees))
	}
	return f
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	return &c, nil
}

type pair struct{ src, dst gc.NodeID }

// inputs are every input a round sends, made from its seed alone.
type inputs struct {
	seed  int64
	cube  *gc.Cube
	pairs []pair // the working set (nil for uniform pairs)

	// static is the fault batch applied at setup (nil when none); its
	// epoch is 1.
	static    []serve.FaultOp
	staticSet *fault.Set

	// churn[j] is the j-th mutation batch; it makes epoch base+j+1.
	churn [][]serve.FaultOp
}

func makeInputs(w *workload, seed int64, churnBatches int) *inputs {
	cube := gc.New(w.N, w.Alpha)
	in := &inputs{seed: seed, cube: cube}
	rng := rand.New(rand.NewSource(seed))
	nodes := cube.Nodes()
	if w.Pairs == "working-set" {
		seen := make(map[pair]bool, w.WorkingSet)
		for len(in.pairs) < w.WorkingSet {
			p := pair{gc.NodeID(rng.Intn(nodes)), gc.NodeID(rng.Intn(nodes))}
			if p.src != p.dst && !seen[p] {
				seen[p] = true
				in.pairs = append(in.pairs, p)
			}
		}
	}
	if sf := w.StaticFaults; sf != nil {
		fs := fault.NewSet(cube)
		for fs.Count() < int(sf.NodeShare*float64(nodes)) {
			v := gc.NodeID(rng.Intn(nodes))
			if !fs.NodeFaulty(v) {
				fs.AddNode(v)
				in.static = append(in.static, serve.FaultOp{Op: serve.OpInject, Kind: serve.KindNode, Node: v})
			}
		}
		addLinks := func(count int, aCategory bool) {
			for added := 0; added < count; {
				v := gc.NodeID(rng.Intn(nodes))
				dims := cube.LinkDims(v)
				d := dims[rng.Intn(len(dims))]
				if (d >= w.Alpha) != aCategory || fs.LinkFaulty(v, d) {
					continue
				}
				fs.AddLink(v, d)
				in.static = append(in.static, serve.FaultOp{Op: serve.OpInject, Kind: serve.KindLink, Node: v, Dim: d})
				added++
			}
		}
		addLinks(sf.ALinks, true)
		addLinks(sf.BLinks, false)
		in.staticSet = fs.Freeze()
	}
	if w.ChurnRate > 0 {
		in.churn = makeChurn(cube, rand.New(rand.NewSource(seed*31+7)), churnBatches, w.ChurnMaxLive)
	}
	return in
}

// makeChurn makes count mutation batches of 1-4 node or link inject or
// repair ops each, keeping at most maxLive faults live.
func makeChurn(cube *gc.Cube, rng *rand.Rand, count, maxLive int) [][]serve.FaultOp {
	type comp struct {
		node gc.NodeID
		dim  int // -1 for a node
	}
	var liveList []comp
	isLive := map[comp]bool{}
	out := make([][]serve.FaultOp, 0, count)
	for len(out) < count {
		var batch []serve.FaultOp
		touched := map[comp]bool{}
		for n := 1 + rng.Intn(4); len(batch) < n; {
			if len(liveList) > 0 && (len(liveList) >= maxLive || rng.Intn(2) == 0) {
				i := rng.Intn(len(liveList))
				c := liveList[i]
				if touched[c] {
					break
				}
				touched[c] = true
				liveList[i] = liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				delete(isLive, c)
				batch = append(batch, faultOp(serve.OpRepair, c.node, c.dim))
				continue
			}
			v := gc.NodeID(rng.Intn(cube.Nodes()))
			c := comp{v, -1}
			if rng.Intn(2) == 0 {
				dims := cube.LinkDims(v)
				d := dims[rng.Intn(len(dims))]
				if v&(1<<d) != 0 { // name a link by its low endpoint
					v ^= 1 << d
				}
				c = comp{v, int(d)}
			}
			if isLive[c] || touched[c] {
				continue
			}
			touched[c] = true
			isLive[c] = true
			liveList = append(liveList, c)
			batch = append(batch, faultOp(serve.OpInject, c.node, c.dim))
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
	return out
}

func faultOp(verb string, v gc.NodeID, dim int) serve.FaultOp {
	if dim < 0 {
		return serve.FaultOp{Op: verb, Kind: serve.KindNode, Node: v}
	}
	return serve.FaultOp{Op: verb, Kind: serve.KindLink, Node: v, Dim: uint(dim)}
}

// applyOps returns a frozen copy of fs with ops applied, the way the
// server applies a batch.
func applyOps(fs *fault.Set, ops []serve.FaultOp) *fault.Set {
	return fs.MutateCopy(func(s *fault.Set) {
		for _, op := range ops {
			switch {
			case op.Op == serve.OpInject && op.Kind == serve.KindNode:
				s.AddNode(op.Node)
			case op.Op == serve.OpInject:
				s.AddLink(op.Node, op.Dim)
			case op.Kind == serve.KindNode:
				s.RemoveNode(op.Node)
			default:
				s.RemoveLink(op.Node, op.Dim)
			}
		}
	})
}

// generator makes a seeded request stream of the workload's mix.
type generator struct {
	w   *workload
	in  *inputs
	rng *rand.Rand
}

// newGenerator makes the numbered stream of a round's inputs.
func newGenerator(w *workload, in *inputs, stream int64) *generator {
	return &generator{w: w, in: in, rng: rand.New(rand.NewSource(in.seed*1_000_003 + stream))}
}

func (g *generator) next() op {
	if g.w.CollectiveEvery > 0 && g.rng.Intn(g.w.CollectiveEvery) == 0 {
		return g.collective()
	}
	p := g.pair()
	return op{kind: opRoute, src: p.src, dst: p.dst}
}

func (g *generator) pair() pair {
	switch {
	case g.w.Mix == "hotspot" && g.rng.Float64() < g.w.HotShare:
		return g.in.pairs[g.rng.Intn(g.w.HotPairs)]
	case g.in.pairs != nil:
		return g.in.pairs[g.rng.Intn(len(g.in.pairs))]
	}
	n := g.in.cube.Nodes()
	for {
		p := pair{gc.NodeID(g.rng.Intn(n)), gc.NodeID(g.rng.Intn(n))}
		if p.src != p.dst {
			return p
		}
	}
}

// collective makes a broadcast (one in four) or a multicast to 1-8
// distinct destinations other than the root.
func (g *generator) collective() op {
	n := g.in.cube.Nodes()
	root := gc.NodeID(g.rng.Intn(n))
	if g.rng.Intn(4) == 0 {
		return op{kind: opBroadcast, src: root}
	}
	k := 1 + g.rng.Intn(8)
	dests := make([]gc.NodeID, 0, k)
	for len(dests) < k {
		d := gc.NodeID(g.rng.Intn(n))
		if d != root && !containsNode(dests, d) {
			dests = append(dests, d)
		}
	}
	return op{kind: opMulticast, src: root, dests: dests}
}

func containsNode(xs []gc.NodeID, v gc.NodeID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (g *generator) ops(count int) []op {
	out := make([]op, count)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// healthyPair returns the first working-set (or seeded) pair whose
// endpoints are healthy under fs and, when owner is set, whose source
// satisfies it.
func (in *inputs) healthyPair(fs *fault.Set, rng *rand.Rand, ok func(gc.NodeID) bool) pair {
	for {
		var p pair
		if in.pairs != nil {
			p = in.pairs[rng.Intn(len(in.pairs))]
		} else {
			p = pair{gc.NodeID(rng.Intn(in.cube.Nodes())), gc.NodeID(rng.Intn(in.cube.Nodes()))}
		}
		if p.src == p.dst || (fs != nil && (fs.NodeFaulty(p.src) || fs.NodeFaulty(p.dst))) {
			continue
		}
		if ok == nil || ok(p.src) {
			return p
		}
	}
}
