package fault

// Halver is the per-kind magnitude hook of Shrink: Halved returns the
// event with its magnitude halved toward its floor, and false when the
// event already sits at its floor.
type Halver[E any] interface {
	Halved() (E, bool)
}

// Shrink reduces a failing event schedule to a smaller one that still
// fails, in the delta-debugging style: fails must return true when the
// failure reproduces under the candidate schedule. The search first
// deletes event chunks (halves, then quarters, down to single events,
// repeating at granularity one until a fixed point), then halves the
// surviving events' magnitudes toward their floors. Event clocks are
// left untouched: moving a fault in time changes which execution it
// perturbs, which is not a reduction.
//
// The empty schedule is a candidate only when tryEmpty is set. fails may
// reorder a candidate in place into its caller's canonical order; the
// search continues from the order fails leaves. budget caps the number
// of fails invocations; when it runs out the best schedule found so far
// is returned. The result always still fails (the input itself is
// assumed to).
//
// The search is deterministic: same input schedule, same fails
// behavior, same result — so a shrunk artifact is as replayable as the
// schedule it came from.
func Shrink[E Halver[E]](events []E, budget int, tryEmpty bool, fails func([]E) bool) []E {
	cur := events
	calls := 0
	try := func(cand []E) bool {
		if calls >= budget || (len(cand) == 0 && !tryEmpty) {
			return false
		}
		calls++
		return fails(cand)
	}

	// Phase 1: chunk deletion.
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		reduced := false
		for start := 0; start < len(cur); {
			end := min(start+chunk, len(cur))
			cand := make([]E, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if try(cand) {
				cur = cand
				reduced = true
				// Keep start in place: the next chunk slid into it.
			} else {
				start = end
			}
		}
		if calls >= budget {
			return cur
		}
		if chunk == 1 {
			if !reduced {
				break
			}
			// Single-event deletions still landing: go around again.
			continue
		}
		chunk /= 2
	}

	// Phase 2: magnitude minimization.
	for i := range cur {
		for calls < budget {
			next, ok := cur[i].Halved()
			if !ok {
				break
			}
			cand := append([]E(nil), cur...)
			cand[i] = next
			if !try(cand) {
				break
			}
			cur = cand
		}
	}
	return cur
}

// Halved implements Halver: stutter/stall lengths and stale-scan depths
// floor at 1; stale-read depths floor at 0 (the null read).
func (e Event) Halved() (Event, bool) {
	floor := int64(1)
	if e.Kind == StaleRead {
		floor = 0
	}
	if e.Arg <= floor {
		return e, false
	}
	e.Arg = max(e.Arg/2, floor)
	return e, true
}

// Shrink is the package-level Shrink over the schedule's events, with
// the empty schedule as a candidate. repro sees each candidate as a
// normalized Schedule; the result is s itself when nothing smaller
// reproduces.
func (s *Schedule) Shrink(budget int, repro func(*Schedule) bool) *Schedule {
	if s == nil {
		return nil
	}
	best := s
	Shrink(s.Events(), budget, true, func(events []Event) bool {
		cand, err := NewSchedule(s.n, events)
		if err != nil || !repro(cand) {
			return false
		}
		// NewSchedule re-sorts; continue from the canonical order.
		copy(events, cand.events)
		best = cand
		return true
	})
	return best
}
