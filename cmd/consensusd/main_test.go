package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunLifecycle boots a full node on an ephemeral port, exercises the
// KV API over real HTTP, then shuts it down with SIGTERM and checks the
// drain completes cleanly.
func TestRunLifecycle(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-shards", "2",
			"-pipeline", "2",
			"-seed", "7",
		}, os.Stdout, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("node never became ready")
	}
	base := "http://" + addr

	req, err := http.NewRequest("PUT", base+"/v1/kv/boot", strings.NewReader("ok"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}
	for i := 0; i < 5; i++ {
		resp, err = http.Post(base+"/v1/kv/hits/inc", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(base + "/v1/kv/hits")
	if err != nil {
		t.Fatal(err)
	}
	var kr struct {
		Value string `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if kr.Value != "5" {
		t.Fatalf("hits = %q after 5 incs, want 5", kr.Value)
	}
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"shards": 2`) {
		t.Fatalf("status missing shard count: %s", body)
	}

	// SIGTERM is delivered process-wide; run's signal.Notify picks it up.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("node never drained after SIGTERM")
	}
}

// TestRunSignalAtReady sends SIGTERM the moment run reports ready, with
// no request in between: the signal must already be caught, so the node
// drains and run returns nil. Were it uncaught, its default action would
// kill the test binary.
func TestRunSignalAtReady(t *testing.T) {
	for i := 0; i < 5; i++ {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-seed", fmt.Sprint(i + 1)}, os.Stdout, ready)
		}()
		select {
		case <-ready:
		case err := <-done:
			t.Fatalf("run %d exited before ready: %v", i, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d never became ready", i)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: shutdown: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("run %d never drained after SIGTERM", i)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-shards", "-1"},
		{"-protocol", "paxos"},
		{"positional"},
	}
	for _, args := range cases {
		t.Run(fmt.Sprint(args), func(t *testing.T) {
			if err := run(args, os.Stdout, nil); err == nil {
				t.Fatalf("run(%q) succeeded, want error", args)
			}
		})
	}
}
