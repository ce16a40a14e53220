package sim

import (
	"fmt"
	"strings"
)

// WaitNode is one resource or actor in a wait-for graph. A node is "wedged"
// when it has demand (work it wants to do) but is not moving (made no
// progress over the observation window). Only wedged nodes participate in
// deadlock detection: a cycle through a node that is still moving is a
// pipeline, not a deadlock.
type WaitNode struct {
	Name   string
	Demand bool
	Moving bool
	Detail string // human-readable state, e.g. "0/64 credit lines free"
	// Kind tags the resource class the node represents ("" for the
	// classic host datapath resources, "pfc" for paused fabric ports).
	// Classification uses it to name a cycle made entirely of PFC pauses
	// as a pfc-cycle rather than a generic deadlock.
	Kind string
}

type waitEdge struct {
	to    int
	label string
}

// WaitGraph is a small directed graph of "X waits for Y" relations, built
// by the testbed at stall-detection time and classified by the sentinel.
// Node and edge insertion order is preserved, so traversal — and therefore
// the reported cycle — is deterministic.
type WaitGraph struct {
	nodes []WaitNode
	index map[string]int
	edges [][]waitEdge
}

// NewWaitGraph returns an empty graph.
func NewWaitGraph() *WaitGraph {
	return &WaitGraph{index: make(map[string]int)}
}

// AddNode inserts a node. Re-adding a name panics: the builder constructs
// the graph in one pass, so a duplicate is a programming error.
func (g *WaitGraph) AddNode(name string, demand, moving bool, detail string) {
	g.AddNodeKind(name, "", demand, moving, detail)
}

// AddNodeKind inserts a node tagged with a resource kind (see WaitNode.Kind).
func (g *WaitGraph) AddNodeKind(name, kind string, demand, moving bool, detail string) {
	if _, dup := g.index[name]; dup {
		panic(fmt.Sprintf("sim: duplicate wait-graph node %q", name))
	}
	g.index[name] = len(g.nodes)
	g.nodes = append(g.nodes, WaitNode{Name: name, Demand: demand, Moving: moving, Detail: detail, Kind: kind})
	g.edges = append(g.edges, nil)
}

// AddEdge records "from waits for to". Both nodes must already exist.
func (g *WaitGraph) AddEdge(from, to, label string) {
	fi, ok := g.index[from]
	if !ok {
		panic(fmt.Sprintf("sim: wait-graph edge from unknown node %q", from))
	}
	ti, ok := g.index[to]
	if !ok {
		panic(fmt.Sprintf("sim: wait-graph edge to unknown node %q", to))
	}
	g.edges[fi] = append(g.edges[fi], waitEdge{to: ti, label: label})
}

func (g *WaitGraph) wedged(i int) bool {
	return g.nodes[i].Demand && !g.nodes[i].Moving
}

// StallClass is the sentinel's verdict on a detected stall.
type StallClass int

const (
	// StallIdle: nothing is wedged — the quiescence was benign (no node
	// both wants progress and is blocked).
	StallIdle StallClass = iota
	// StallStarvation: wedged nodes exist but form no wait cycle; something
	// is blocked on a resource that is simply not being produced.
	StallStarvation
	// StallDeadlock: a cycle of wedged nodes each waiting on the next —
	// e.g. a PCIe credit loop where the NIC waits for credits and the
	// credit-release path is itself wedged.
	StallDeadlock
	// StallPFCCycle: a deadlock whose cycle consists entirely of paused
	// fabric ports (WaitNode.Kind "pfc") — a PFC pause loop across trunks,
	// the lossless-fabric storm/deadlock signature. Distinct from
	// StallDeadlock so the verdict names the failing layer: the fabric's
	// flow control, not the host's credit machinery.
	StallPFCCycle
)

func (c StallClass) String() string {
	switch c {
	case StallIdle:
		return "idle"
	case StallStarvation:
		return "starvation"
	case StallDeadlock:
		return "deadlock"
	case StallPFCCycle:
		return "pfc-cycle"
	}
	return fmt.Sprintf("StallClass(%d)", int(c))
}

// FindCycle searches for a cycle among wedged nodes, following only edges
// whose endpoints are both wedged. It returns the cycle's node names in
// traversal order, or nil. The DFS visits nodes and edges in insertion
// order, so the answer is deterministic for a deterministically built graph.
func (g *WaitGraph) FindCycle() []string {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make([]int, len(g.nodes))
	var stack []int
	var cycle []string
	var dfs func(n int) bool
	dfs = func(n int) bool {
		state[n] = onStack
		stack = append(stack, n)
		for _, e := range g.edges[n] {
			if !g.wedged(e.to) {
				continue
			}
			switch state[e.to] {
			case onStack:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == e.to {
						for _, m := range stack[i:] {
							cycle = append(cycle, g.nodes[m].Name)
						}
						return true
					}
				}
			case unvisited:
				if dfs(e.to) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = done
		return false
	}
	for i := range g.nodes {
		if g.wedged(i) && state[i] == unvisited {
			if dfs(i) {
				return cycle
			}
		}
	}
	return nil
}

// Classify renders the verdict: pfc-cycle (a cycle made entirely of
// paused fabric ports), deadlock (with the cycle members), starvation
// (with the wedged nodes), or idle.
func (g *WaitGraph) Classify() (StallClass, []string) {
	if cycle := g.FindCycle(); cycle != nil {
		allPFC := true
		for _, name := range cycle {
			if g.nodes[g.index[name]].Kind != "pfc" {
				allPFC = false
				break
			}
		}
		if allPFC {
			return StallPFCCycle, cycle
		}
		return StallDeadlock, cycle
	}
	var wedged []string
	for i := range g.nodes {
		if g.wedged(i) {
			wedged = append(wedged, g.nodes[i].Name)
		}
	}
	if len(wedged) > 0 {
		return StallStarvation, wedged
	}
	return StallIdle, nil
}

// String renders the graph as a multi-line diagnostic.
func (g *WaitGraph) String() string {
	var b strings.Builder
	b.WriteString("wait-for graph:\n")
	for i, n := range g.nodes {
		flags := make([]string, 0, 2)
		if n.Demand {
			flags = append(flags, "demand")
		}
		if n.Moving {
			flags = append(flags, "moving")
		}
		if g.wedged(i) {
			flags = append(flags, "WEDGED")
		}
		fmt.Fprintf(&b, "  %-14s [%s] %s\n", n.Name, strings.Join(flags, " "), n.Detail)
	}
	for i, es := range g.edges {
		for _, e := range es {
			fmt.Fprintf(&b, "  %s -> %s: %s\n", g.nodes[i].Name, g.nodes[e.to].Name, e.label)
		}
	}
	class, members := g.Classify()
	fmt.Fprintf(&b, "  classification: %s", class)
	if len(members) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(members, " -> "))
	}
	return b.String()
}
