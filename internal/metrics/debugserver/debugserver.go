// Package debugserver serves a process's live metrics and profiles over
// HTTP for the consensusbench and consensusd -debug-addr flags. It is a
// package of its own so that only the commands, not every instrumented
// package, link net/http/pprof and expvar.
package debugserver

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// publishOnce guards the expvar registration: expvar.Publish panics on a
// duplicate name, and tests start more than one server per process.
var publishOnce sync.Once

// Start serves expvar (including the live metrics registry under the
// "conciliator_metrics" var) and net/http/pprof on addr. It returns the
// bound address — addr may end in ":0" — and a shutdown function. The
// handlers go on a private mux, not http.DefaultServeMux, so the
// profiling endpoints never leak onto another listener of the process,
// such as consensusd's client API.
func Start(addr string) (string, func(), error) {
	publishOnce.Do(func() {
		expvar.Publish("conciliator_metrics", expvar.Func(func() any {
			return metrics.Default().Snapshot()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
