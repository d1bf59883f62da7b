// The unified construction surface. PRs 1–9 accreted three ways to
// configure routing — functional options on NewRouter, the
// AdaptiveConfig struct, and per-subsystem config structs threading
// through serve and simnet. Options folds them into one declarative
// value covering both planners: the static Router reads the fault,
// substrate, repair, tracer, fallback and tree fields; the adaptive
// stepper additionally reads the flight-tuning knobs. The functional
// Option form survives as thin wrappers over Options so every existing
// caller compiles unchanged.
package core

import (
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// TreeAuto selects a multipath tree per flow (hashing source and
// destination, mtree.TreeSet.TreeForFlow) instead of pinning one tree
// for every route. It is only meaningful alongside a non-nil Trees.
const TreeAuto = -1

// Options is the single configuration surface for both routers. The
// zero value is a fault-free, single-tree, untraced router with the
// BFS fallback enabled — the same defaults NewRouter has always had.
type Options struct {
	// Faults is the fault set routes must avoid; nil means fault-free.
	Faults *fault.Set
	// Substrate selects the intra-class fault-tolerant hypercube router.
	Substrate Substrate
	// Repair, when set, supplies the tree-edge health map: severed
	// crossings detour through surviving realizations and provable
	// partitions return ErrPartitioned without burning a BFS. It must
	// describe the same fault state as Faults.
	Repair *repair.Health
	// Tracer receives the structured event narrative of every route;
	// nil keeps tracing disabled at zero cost.
	Tracer trace.Tracer
	// DisableFallback removes the BFS last resort, exposing the bare
	// strategy.
	DisableFallback bool

	// Trees, when set, activates multipath routing: routes are planned
	// for one tree of the set, steering their crossings through that
	// tree's frame stripe. nil keeps the paper's single-tree behavior
	// bit for bit (the hot path's zero-allocation property included).
	Trees *mtree.TreeSet
	// Tree selects which tree of Trees routes are planned for: a fixed
	// index in [0, Trees.K()), or TreeAuto to stripe per flow. Note the
	// zero value pins tree 0 — set TreeAuto explicitly (WithTrees does)
	// when flow striping is wanted.
	Tree int

	// Flight tuning, read only by the adaptive stepper
	// (NewAdaptiveRouterWith); zero values pick the documented
	// AdaptiveConfig defaults.
	MaxRetries  int
	BackoffBase int
	MaxBackoff  int
	TTL         int
	MaxVisits   int
}

// Option configures routing construction by mutating an Options value.
// The With* constructors below are retained so existing callers
// compile; new code should build an Options literal and call
// NewRouterWith or NewAdaptiveRouterWith.
type Option func(*Options)

// WithFaults supplies the fault set the router must avoid.
//
// Deprecated: set Options.Faults.
func WithFaults(s *fault.Set) Option { return func(o *Options) { o.Faults = s } }

// WithSubstrate selects the intra-class fault-tolerant hypercube router.
//
// Deprecated: set Options.Substrate.
func WithSubstrate(s Substrate) Option { return func(o *Options) { o.Substrate = s } }

// WithRepair supplies a tree-edge health map the router consults before
// committing to a tree edge: severed edges yield detour class-paths
// through surviving realizations, and a provably cut-off destination
// class returns ErrPartitioned without burning a BFS. The map must
// describe the same fault state as WithFaults — the partition verdict
// is only as sound as that agreement.
//
// Deprecated: set Options.Repair.
func WithRepair(h *repair.Health) Option { return func(o *Options) { o.Repair = h } }

// WithoutFallback disables the BFS fallback, exposing the bare strategy.
//
// Deprecated: set Options.DisableFallback.
func WithoutFallback() Option { return func(o *Options) { o.DisableFallback = true } }

// WithTracer attaches a trace sink: the router emits one structured
// event per hop, detour, repair crossing, rollback and terminal
// outcome (the taxonomy of internal/trace). The event stream of a
// successful route replays to exactly the returned path — see
// trace.Replay. A nil tracer keeps tracing disabled.
//
// Deprecated: set Options.Tracer.
func WithTracer(t trace.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithTrees activates multipath routing over ts, striping flows across
// its trees (TreeAuto). Combine with WithTree to pin one tree instead.
func WithTrees(ts *mtree.TreeSet) Option {
	return func(o *Options) { o.Trees = ts; o.Tree = TreeAuto }
}

// WithTree activates multipath routing over ts with every route pinned
// to the given tree.
func WithTree(ts *mtree.TreeSet, tree int) Option {
	return func(o *Options) { o.Trees = ts; o.Tree = tree }
}

// NewRouterWith builds a router over cube c from a declarative Options
// value — the canonical constructor; NewRouter remains as the
// functional-option form.
func NewRouterWith(c *gc.Cube, o Options) *Router {
	r := &Router{
		cube:      c,
		faults:    o.Faults,
		repair:    o.Repair,
		substrate: o.Substrate,
		fallback:  !o.DisableFallback,
		tracer:    o.Tracer,
	}
	if o.Trees != nil {
		r.trees = o.Trees
		r.tree = o.Tree
		if r.tree < 0 || r.tree >= o.Trees.K() {
			r.tree = TreeAuto
		}
	}
	r.scratch.New = func() any { return new(routeScratch) }
	r.bfs.New = func() any { return new(bfsScratch) }
	return r
}

// NewAdaptiveRouterWith builds an adaptive router over cube c with
// ground truth oracle from a declarative Options value — the canonical
// constructor; NewAdaptiveRouter remains as the AdaptiveConfig form.
func NewAdaptiveRouterWith(c *gc.Cube, oracle Oracle, o Options) *AdaptiveRouter {
	return NewAdaptiveRouter(c, oracle, AdaptiveConfig{
		Substrate:       o.Substrate,
		MaxRetries:      o.MaxRetries,
		BackoffBase:     o.BackoffBase,
		MaxBackoff:      o.MaxBackoff,
		TTL:             o.TTL,
		MaxVisits:       o.MaxVisits,
		DisableFallback: o.DisableFallback,
		Repair:          o.Repair,
		Tracer:          o.Tracer,
		Trees:           o.Trees,
		Tree:            o.Tree,
	})
}
