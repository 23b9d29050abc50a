package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file is the chaos layer: correlated and time-structured failure
// regimes beyond the independent single-node losses of Plan. A ChaosPlan
// declares rack-scoped group failures, transient flaps that return capacity
// after a deterministic delay, straggler nodes that slow instead of die,
// and seeded failure storms with exponential inter-arrival times. Expansion
// to a concrete event schedule is a pure function of (plan, node count), so
// two runs with the same plan observe the identical chaos sequence.

// NodeEventKind classifies one expanded chaos event.
type NodeEventKind int

// Chaos event kinds, in delivery order within one timestamp.
const (
	// NodeDown removes the event's nodes (correlated when len > 1).
	NodeDown NodeEventKind = iota
	// NodeUp restores previously failed nodes with full capacity.
	NodeUp
	// NodeSlow multiplies the node's execution time by Factor.
	NodeSlow
	// NodeFast ends a NodeSlow episode (the node runs at full speed again).
	NodeFast
)

func (k NodeEventKind) String() string {
	switch k {
	case NodeDown:
		return "down"
	case NodeUp:
		return "up"
	case NodeSlow:
		return "slow"
	case NodeFast:
		return "fast"
	}
	return fmt.Sprintf("NodeEventKind(%d)", int(k))
}

// NodeEvent is one expanded chaos event at a simulated time. Down/Up events
// may cover several nodes (a correlated group); Slow/Fast always cover one.
type NodeEvent struct {
	Kind NodeEventKind
	// At is the simulated delivery time in seconds.
	At float64
	// Nodes lists the affected node indices (len > 1 = correlated group).
	Nodes []int
	// Factor is the execution slowdown of a NodeSlow event (>= 1).
	Factor float64
	// Cause labels the regime that produced the event ("fail", "group",
	// "flap", "storm", "slow") for traces and reports.
	Cause string
}

// GroupFailure is a rack-scoped correlated loss: all nodes of the group
// fail at the same simulated instant. RestoreAfter > 0 returns the whole
// group after that many seconds (a transient rack switch outage);
// RestoreAfter == 0 is a permanent loss.
type GroupFailure struct {
	Nodes        []int   `json:"nodes"`
	At           float64 `json:"at"`
	RestoreAfter float64 `json:"restore_after,omitempty"`
}

// Flap is a transient single-node failure: the node fails at At and
// re-registers with full (empty) capacity at At+RestoreAfter.
type Flap struct {
	Node         int     `json:"node"`
	At           float64 `json:"at"`
	RestoreAfter float64 `json:"restore_after"`
}

// SlowNode is a straggler node: from At on, everything resident on the node
// runs Factor times slower. Duration > 0 bounds the episode; Duration == 0
// slows the node for the rest of the run.
type SlowNode struct {
	Node     int     `json:"node"`
	At       float64 `json:"at"`
	Factor   float64 `json:"factor"`
	Duration float64 `json:"duration,omitempty"`
}

// Storm is a failure storm: Failures node losses starting at Start with
// exponential inter-arrival gaps of mean MeanGap seconds, victims drawn
// from the cluster by a seeded RNG. Recover > 0 makes every storm loss
// transient (the victim returns after Recover seconds), which is the
// capacity-oscillation regime elastic recovery is designed for.
type Storm struct {
	Start    float64 `json:"start"`
	MeanGap  float64 `json:"mean_gap"`
	Failures int     `json:"failures"`
	Recover  float64 `json:"recover,omitempty"`
}

// ChaosPlan declares the correlated chaos injected into one workload run.
// The zero value injects nothing.
type ChaosPlan struct {
	// Seed drives the storm's victim and inter-arrival draws.
	Seed int64 `json:"seed,omitempty"`
	// Groups lists rack-scoped correlated failures.
	Groups []GroupFailure `json:"groups,omitempty"`
	// Flaps lists transient single-node failures.
	Flaps []Flap `json:"flaps,omitempty"`
	// SlowNodes lists straggler-node episodes.
	SlowNodes []SlowNode `json:"slow_nodes,omitempty"`
	// Storm, when non-nil, adds a seeded failure storm.
	Storm *Storm `json:"storm,omitempty"`
}

// Enabled reports whether the plan injects any chaos at all.
func (p ChaosPlan) Enabled() bool {
	return len(p.Groups) > 0 || len(p.Flaps) > 0 || len(p.SlowNodes) > 0 ||
		(p.Storm != nil && p.Storm.Failures > 0)
}

// Validate reports plans that cannot be expanded against a cluster of the
// given node count.
func (p ChaosPlan) Validate(nodes int) error {
	checkNode := func(what string, n int) error {
		if n < 0 || n >= nodes {
			return fmt.Errorf("fault: %s targets node %d of %d", what, n, nodes)
		}
		return nil
	}
	for _, g := range p.Groups {
		if len(g.Nodes) == 0 {
			return fmt.Errorf("fault: empty group failure at %g", g.At)
		}
		if g.At < 0 || g.RestoreAfter < 0 {
			return fmt.Errorf("fault: group failure with negative time (at %g, restore %g)", g.At, g.RestoreAfter)
		}
		seen := map[int]bool{}
		for _, n := range g.Nodes {
			if err := checkNode("group failure", n); err != nil {
				return err
			}
			if seen[n] {
				return fmt.Errorf("fault: group failure lists node %d twice", n)
			}
			seen[n] = true
		}
	}
	for _, f := range p.Flaps {
		if err := checkNode("flap", f.Node); err != nil {
			return err
		}
		if f.At < 0 {
			return fmt.Errorf("fault: flap at negative time %g", f.At)
		}
		if f.RestoreAfter <= 0 {
			return fmt.Errorf("fault: flap of node %d must restore after > 0s, got %g", f.Node, f.RestoreAfter)
		}
	}
	for _, s := range p.SlowNodes {
		if err := checkNode("slow node", s.Node); err != nil {
			return err
		}
		if s.At < 0 || s.Duration < 0 {
			return fmt.Errorf("fault: slow node %d with negative time (at %g, duration %g)", s.Node, s.At, s.Duration)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: slow node %d factor %g < 1", s.Node, s.Factor)
		}
	}
	if st := p.Storm; st != nil && st.Failures > 0 {
		if st.Start < 0 || st.Recover < 0 {
			return fmt.Errorf("fault: storm with negative time (start %g, recover %g)", st.Start, st.Recover)
		}
		if st.MeanGap <= 0 {
			return fmt.Errorf("fault: storm mean gap %g <= 0", st.MeanGap)
		}
		if nodes < 1 {
			return fmt.Errorf("fault: storm over an empty cluster")
		}
	}
	return nil
}

// Events expands the plan into the concrete chaos schedule for a cluster of
// the given node count: a time-sorted event list that is a pure function of
// the plan (storm draws use the plan seed only). Ties preserve declaration
// order: groups, flaps, slow nodes, then storm losses.
func (p ChaosPlan) Events(nodes int) []NodeEvent {
	var evs []NodeEvent
	for _, g := range p.Groups {
		ns := append([]int(nil), g.Nodes...)
		sort.Ints(ns)
		evs = append(evs, NodeEvent{Kind: NodeDown, At: g.At, Nodes: ns, Cause: "group"})
		if g.RestoreAfter > 0 {
			evs = append(evs, NodeEvent{Kind: NodeUp, At: g.At + g.RestoreAfter, Nodes: ns, Cause: "group"})
		}
	}
	for _, f := range p.Flaps {
		evs = append(evs, NodeEvent{Kind: NodeDown, At: f.At, Nodes: []int{f.Node}, Cause: "flap"})
		evs = append(evs, NodeEvent{Kind: NodeUp, At: f.At + f.RestoreAfter, Nodes: []int{f.Node}, Cause: "flap"})
	}
	for _, s := range p.SlowNodes {
		evs = append(evs, NodeEvent{Kind: NodeSlow, At: s.At, Nodes: []int{s.Node}, Factor: s.Factor, Cause: "slow"})
		if s.Duration > 0 {
			evs = append(evs, NodeEvent{Kind: NodeFast, At: s.At + s.Duration, Nodes: []int{s.Node}, Cause: "slow"})
		}
	}
	if st := p.Storm; st != nil && st.Failures > 0 && nodes > 0 {
		rng := rand.New(rand.NewSource(p.Seed ^ 0x73746f726d)) // "storm"
		at := st.Start
		for i := 0; i < st.Failures; i++ {
			if i > 0 {
				// Exponential inter-arrival, rounded to milliseconds so
				// reports print stably.
				at += math.Round(rng.ExpFloat64()*st.MeanGap*1000) / 1000
			}
			victim := rng.Intn(nodes)
			evs = append(evs, NodeEvent{Kind: NodeDown, At: at, Nodes: []int{victim}, Cause: "storm"})
			if st.Recover > 0 {
				evs = append(evs, NodeEvent{Kind: NodeUp, At: at + st.Recover, Nodes: []int{victim}, Cause: "storm"})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}
