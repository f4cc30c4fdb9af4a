package bayes

import (
	"fmt"
	"maps"
	"math"
	"sort"
)

// checkEvidence rejects evidence on unknown variables or with values
// out of range. Variables are checked in ascending order, so which error
// surfaces does not depend on map iteration order.
func (n *Network) checkEvidence(evidence map[int]int) error {
	vars := make([]int, 0, len(evidence))
	for v := range evidence {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		if ev := evidence[v]; v < 0 || v >= len(n.Vars) || ev < 0 || ev >= n.Vars[v].Arity {
			return fmt.Errorf("bayes: invalid evidence %d=%d", v, ev)
		}
	}
	return nil
}

// nodeFactor builds the factor representation of node i's CPT: a factor
// over (parents..., i).
func (n *Network) nodeFactor(i int) *Factor {
	vars := append(append([]int(nil), n.Parents[i]...), i)
	card := make([]int, len(vars))
	for k, v := range vars {
		card[k] = n.Vars[v].Arity
	}
	f := NewFactor(vars, card)
	cpt := n.CPTs[i]
	assign := make([]int, len(vars))
	for idx := range f.Values {
		f.assignment(idx, assign)
		j := 0
		for k := range n.Parents[i] {
			j = j*cpt.ParentCard[k] + assign[k]
		}
		f.Values[idx] = cpt.Rows[j][assign[len(vars)-1]]
	}
	return f
}

// Query computes the exact posterior distribution P(target | evidence) by
// variable elimination. Evidence maps variable index to observed category.
// The returned slice has one probability per category of the target.
//
// Because probabilistic influence flows both ways through the graph, the
// evidence may mention variables before or after the target — this is the
// "evidential reasoning" the paper relies on when an analyst conditions a
// later segment and watches earlier segments change (Fig. 1b→1c).
func (n *Network) Query(target int, evidence map[int]int) ([]float64, error) {
	if target < 0 || target >= len(n.Vars) {
		return nil, fmt.Errorf("bayes: target %d out of range", target)
	}
	if err := n.checkEvidence(evidence); err != nil {
		return nil, err
	}
	if ev, ok := evidence[target]; ok {
		// The target is observed: a point mass.
		out := make([]float64, n.Vars[target].Arity)
		out[ev] = 1
		return out, nil
	}

	// Eliminate every hidden variable except the target, in reverse index
	// order (children before parents keeps intermediate factors small under
	// the left-to-right ordering constraint).
	factors := n.reducedFactors(evidence)
	for v := len(n.Vars) - 1; v >= 0; v-- {
		if v == target {
			continue
		}
		if _, observed := evidence[v]; observed {
			continue
		}
		factors, _ = eliminate(factors, v)
	}
	// Multiply what remains: every other variable was eliminated or
	// reduced away, so the factors are constants or over the target alone,
	// and the target's own CPT factor left at least one of the latter.
	result := factors[0]
	for _, f := range factors[1:] {
		result = Product(result, f)
	}
	if !result.Normalize() {
		return nil, fmt.Errorf("bayes: evidence has zero probability")
	}
	return append([]float64(nil), result.Values...), nil
}

// reducedFactors returns every node's CPT factor reduced by the
// evidence, in node order: the starting list of variable elimination.
func (n *Network) reducedFactors(evidence map[int]int) []*Factor {
	factors := make([]*Factor, 0, len(n.Vars))
	for i := range n.Vars {
		factors = append(factors, n.nodeFactor(i).Reduce(evidence))
	}
	return factors
}

// eliminate is one step of variable elimination (Zhang & Poole, 1994):
// it multiplies, in list order, the factors that mention v into phi and
// returns the others followed by phi with v summed out. With no factor
// mentioning v, phi is nil and factors come back unchanged. The list
// order fixes the floating-point result, so Query and CondSampler rows
// depend on it.
func eliminate(factors []*Factor, v int) (rest []*Factor, phi *Factor) {
	for _, f := range factors {
		if !mentions(f, v) {
			rest = append(rest, f)
		} else if phi == nil {
			phi = f
		} else {
			phi = Product(phi, f)
		}
	}
	if phi == nil {
		return factors, nil
	}
	return append(rest, phi.SumOut(v)), phi
}

func mentions(f *Factor, v int) bool {
	for _, fv := range f.Vars {
		if fv == v {
			return true
		}
	}
	return false
}

// Posteriors returns the posterior distribution of every variable given the
// evidence: the data behind the paper's conditional probability browser
// (Fig. 1b/c and Fig. 7b, 9b, 10b).
func (n *Network) Posteriors(evidence map[int]int) ([][]float64, error) {
	out := make([][]float64, len(n.Vars))
	for i := range n.Vars {
		dist, err := n.Query(i, evidence)
		if err != nil {
			return nil, err
		}
		out[i] = dist
	}
	return out, nil
}

// MutualInformation computes the mutual information (in bits) between two
// variables under the joint distribution encoded by the network, optionally
// conditioned on evidence. It is a convenience used to rank dependencies
// when rendering the BN graph.
func (n *Network) MutualInformation(a, b int, evidence map[int]int) (float64, error) {
	if a == b {
		return 0, fmt.Errorf("bayes: mutual information of a variable with itself")
	}
	pa, err := n.Query(a, evidence)
	if err != nil {
		return 0, err
	}
	pb, err := n.Query(b, evidence)
	if err != nil {
		return 0, err
	}
	mi := 0.0
	for va := 0; va < n.Vars[a].Arity; va++ {
		if pa[va] <= 0 {
			continue
		}
		ev := make(map[int]int, len(evidence)+1)
		maps.Copy(ev, evidence)
		ev[a] = va
		pbGivenA, err := n.Query(b, ev)
		if err != nil {
			return 0, err
		}
		for vb := 0; vb < n.Vars[b].Arity; vb++ {
			if pbGivenA[vb] <= 0 || pb[vb] <= 0 {
				continue
			}
			joint := pa[va] * pbGivenA[vb]
			mi += joint * math.Log2(pbGivenA[vb]/pb[vb])
		}
	}
	return mi, nil
}
