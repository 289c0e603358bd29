package debugserver

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServer(t *testing.T) {
	addr, shutdown, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "conciliator_metrics") {
		t.Errorf("expvar output missing conciliator_metrics:\n%.500s", body)
	}
	// The pprof index must be wired on the same private mux.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp2.StatusCode)
	}
}
