package search

import "github.com/oblivious-consensus/conciliator/internal/fault"

// shrinkGenome ddmin-reduces the winning genome while preserving its
// evaluation-seed fitness: a reduction is kept only if the reduced
// genome's StepsMean on the same seeds is at least target. Passes, in
// order: drop the fault schedule wholesale, delete prefix chunks
// (halving granularity, like fault.Shrink), delete whole segments,
// collapse the weights to uniform, halve segment lengths toward 1, and
// finally hand a surviving fault schedule to fault.Shrink. The search is
// deterministic and spends at most budget evaluations; it returns the
// reduced genome and the evaluations spent.
func shrinkGenome(ev *evaluator, g *Genome, target float64, seeds []seedPair, budget int) (*Genome, int) {
	cur := g.Clone()
	evals := 0
	// keeps reports whether cand scores at least target, spending one
	// evaluation. Invalid candidates are rejected for free.
	keeps := func(cand *Genome) bool {
		if evals >= budget || cand.Validate() != nil {
			return false
		}
		evals++
		s, err := ev.score(cand, seeds, srcGenome)
		return err == nil && s.StepsMean >= target
	}

	if cur.Fault != nil {
		cand := cur.Clone()
		cand.Fault = nil
		if keeps(cand) {
			cur = cand
		}
	}

	for chunk := (len(cur.Prefix) + 1) / 2; chunk >= 1 && len(cur.Prefix) > 0; chunk /= 2 {
		for start := 0; start < len(cur.Prefix); {
			end := start + chunk
			if end > len(cur.Prefix) {
				end = len(cur.Prefix)
			}
			cand := cur.Clone()
			cand.Prefix = append(append([]int(nil), cur.Prefix[:start]...), cur.Prefix[end:]...)
			if keeps(cand) {
				cur = cand // next chunk slid into start
			} else {
				start = end
			}
		}
		if chunk == 1 {
			break
		}
	}

	for i := 0; i < len(cur.Segments); {
		cand := cur.Clone()
		cand.Segments = append(append([]Segment(nil), cur.Segments[:i]...), cur.Segments[i+1:]...)
		if keeps(cand) {
			cur = cand
		} else {
			i++
		}
	}

	if len(cur.Weights) > 0 {
		cand := cur.Clone()
		cand.Weights = nil
		if keeps(cand) {
			cur = cand
		}
	}

	for i := range cur.Segments {
		for cur.Segments[i].Len > 1 {
			cand := cur.Clone()
			cand.Segments[i].Len = cur.Segments[i].Len / 2
			if !keeps(cand) {
				break
			}
			cur = cand
		}
	}

	if cur.Fault != nil && evals < budget {
		// Schedule.Shrink caps its own repro invocations at the remaining
		// budget; each invocation costs one evaluation here.
		shrunk := cur.Fault.Shrink(budget-evals, func(s *fault.Schedule) bool {
			cand := cur.Clone()
			cand.Fault = s
			if cand.Validate() != nil {
				return false
			}
			evals++
			sc, err := ev.score(cand, seeds, srcGenome)
			return err == nil && sc.StepsMean >= target
		})
		cand := cur.Clone()
		cand.Fault = shrunk
		if cand.Validate() == nil {
			cur = cand
		}
	}

	return cur, evals
}
