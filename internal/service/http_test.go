package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
)

func startTestServer(t *testing.T) (*Node, *httptest.Server) {
	t.Helper()
	n, err := Start(Config{Shards: 2, Pipeline: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(n))
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return n, srv
}

func do(t *testing.T, method, url, body string) (int, kvResponse) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kr kvResponse
	if resp.Header.Get("Content-Type") == "application/json" {
		if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil && err != io.EOF {
			t.Fatalf("%s %s: bad JSON: %v", method, url, err)
		}
	}
	return resp.StatusCode, kr
}

func TestHTTPKVLifecycle(t *testing.T) {
	_, srv := startTestServer(t)
	url := srv.URL + "/v1/kv/greeting"

	if code, _ := do(t, "GET", url, ""); code != http.StatusNotFound {
		t.Fatalf("GET missing key: %d, want 404", code)
	}
	if code, kr := do(t, "PUT", url, "hello"); code != http.StatusOK || kr.Value != "hello" || !kr.Found {
		t.Fatalf("PUT: %d %+v", code, kr)
	}
	if code, kr := do(t, "GET", url, ""); code != http.StatusOK || kr.Value != "hello" {
		t.Fatalf("GET after PUT: %d %+v", code, kr)
	}
	if code, _ := do(t, "DELETE", url, ""); code != http.StatusOK {
		t.Fatalf("DELETE: %d", code)
	}
	if code, _ := do(t, "GET", url, ""); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", code)
	}
}

func TestHTTPInc(t *testing.T) {
	_, srv := startTestServer(t)
	url := srv.URL + "/v1/kv/hits"

	// Custom INC verb and the POST /inc spelling are equivalent.
	if code, kr := do(t, "INC", url, ""); code != http.StatusOK || kr.Value != "1" {
		t.Fatalf("INC: %d %+v", code, kr)
	}
	if code, kr := do(t, "POST", url+"/inc", ""); code != http.StatusOK || kr.Value != "2" {
		t.Fatalf("POST /inc: %d %+v", code, kr)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, srv := startTestServer(t)
	req, err := http.NewRequest("PATCH", srv.URL+"/v1/kv/k", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH: %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "INC") {
		t.Fatalf("Allow header %q does not advertise INC", allow)
	}
}

func TestHTTPStatus(t *testing.T) {
	n, srv := startTestServer(t)
	if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpSet, Key: "s", Value: "1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Protocol != "register" || len(st.Groups) != 2 {
		t.Fatalf("status: %+v", st)
	}
	if !strings.Contains(string(body), `"live_slots"`) {
		t.Fatalf("status does not report live_slots: %s", body)
	}
	var ops int64
	for _, g := range st.Groups {
		ops += g.AppliedOps
	}
	if ops == 0 {
		t.Fatal("status shows zero applied ops after a committed write")
	}
}

func TestHTTPClosedNode(t *testing.T) {
	n, srv := startTestServer(t)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, "PUT", srv.URL+"/v1/kv/k", "v"); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT on closed node: %d, want 503", code)
	}
	// Reads still work against the final applied state.
	if code, _ := do(t, "GET", srv.URL+"/v1/kv/k", ""); code != http.StatusNotFound {
		t.Fatalf("GET on closed node: %d, want 404", code)
	}
}
