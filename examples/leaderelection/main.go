// Leader election among free-running goroutines: the id-consensus case
// the paper highlights (m = n possible input values). Every worker
// proposes itself; consensus elects exactly one leader, and every worker
// learns the same one.
//
// This example uses the concurrent execution mode — real goroutines
// racing on the shared objects, with the Go runtime as the (weak)
// adversary — rather than the deterministic simulator.
package main

import (
	"fmt"
	"log"
	"sync"

	conciliator "github.com/oblivious-consensus/conciliator"
)

const workers = 32

func main() {
	election := conciliator.NewConsensus[int](conciliator.ModelLinear, workers)

	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	res, err := election.Run(ids, conciliator.WithConcurrentExecution())
	if err != nil {
		log.Fatal(err)
	}

	leader := res.Decided
	fmt.Printf("elected leader: worker %d (total steps %d, worst process %d)\n",
		leader, res.TotalSteps, res.MaxSteps)

	// Every worker now acts on the election result; the leader does the
	// privileged work, everyone else follows.
	var wg sync.WaitGroup
	results := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res.Values[w] == w {
				results[w] = fmt.Sprintf("worker %d: I lead", w)
			} else {
				results[w] = fmt.Sprintf("worker %d: following %d", w, res.Values[w])
			}
		}()
	}
	wg.Wait()

	leaders := 0
	for w := 0; w < workers; w++ {
		if res.Values[w] == w {
			leaders++
		}
	}
	fmt.Printf("workers claiming leadership: %d (must be exactly 1)\n", leaders)
	fmt.Println(results[leader])
}
