package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. Each node aggregates every span with the same name under
// the same parent (how many, and their total duration), so timing a
// per-candidate layer call costs two clock reads and no allocation. A
// node's self time is its total minus its children's totals.
//
// A tracer that is off records nothing and its clock reads return the zero
// time; the traced run replays the same operations with it off and on to
// measure what tracing costs.
type tracer struct {
	on    bool
	nodes []spanNode
	ids   map[spanKey]int
	// clockCost is what one clock read costs; a span timed between two
	// reads contains one, which the per-call replay subtracts.
	clockCost time.Duration
}

type spanNode struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // -1 for a root
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

type spanKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	const reads = 100_000
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		_ = time.Now()
	}
	return &tracer{on: true, ids: map[spanKey]int{}, clockCost: time.Since(t0) / reads}
}

func offTracer() *tracer { return &tracer{ids: map[spanKey]int{}} }

// span returns the node for name under parent (-1: a root).
func (t *tracer) span(parent int, name string) int {
	k := spanKey{parent, name}
	if id, ok := t.ids[k]; ok {
		return id
	}
	t.nodes = append(t.nodes, spanNode{Name: name, Parent: parent})
	t.ids[k] = len(t.nodes) - 1
	return len(t.nodes) - 1
}

// now reads the clock when the tracer is on.
func (t *tracer) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span of n units of work started at start and returns the
// end time, which can start the next span.
func (t *tracer) end(id int, start time.Time, n int) time.Time {
	if !t.on {
		return start
	}
	now := time.Now()
	t.addN(id, now.Sub(start), n)
	return now
}

func (t *tracer) addN(id int, d time.Duration, n int) {
	if !t.on {
		return
	}
	t.nodes[id].Count += int64(n)
	t.nodes[id].TotalNS += int64(d)
}

// selfTimes fills SelfNS from the totals.
func (t *tracer) selfTimes() {
	for i := range t.nodes {
		t.nodes[i].SelfNS = t.nodes[i].TotalNS
	}
	for _, n := range t.nodes {
		if n.Parent >= 0 {
			t.nodes[n.Parent].SelfNS -= n.TotalNS
		}
	}
}

// perUnit returns the summed total time per unit of the nodes named name,
// in the given unit.
func (t *tracer) perUnit(name string, unit time.Duration) (float64, bool) {
	var total, count int64
	for _, n := range t.nodes {
		if n.Name == name {
			total += n.TotalNS
			count += n.Count
		}
	}
	if count == 0 {
		return 0, false
	}
	return float64(total) / float64(count) / float64(unit), true
}

// under reports whether node id is root or one of its descendants.
func (t *tracer) under(id, root int) bool {
	for ; id >= 0; id = t.nodes[id].Parent {
		if id == root {
			return true
		}
	}
	return false
}

// layerSelf sums the self time of every node below root (not root itself).
func (t *tracer) layerSelf(root int) time.Duration {
	t.selfTimes()
	var sum int64
	for id, n := range t.nodes {
		if id != root && t.under(id, root) {
			sum += n.SelfNS
		}
	}
	return time.Duration(sum)
}

func (t *tracer) write(path string) error {
	t.selfTimes()
	data, err := json.MarshalIndent(t.nodes, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
