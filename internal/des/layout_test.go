package des

import (
	"testing"
	"unsafe"
)

// TestLayout pins the sizes of the records every event reads. At n=10k
// the run loop is memory-bound: an event is a wheel slot and a near slot,
// then the destination's hot process record or the sender's server
// session, so each byte added to one of these is paid on every event
// and, for the per-process records, 10k times over in cache footprint.
// Growing one should be a deliberate choice, made here.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("event is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(proc{}); got > 40 {
		t.Errorf("proc (the hot process record) is %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(session{}); got != 40 {
		t.Errorf("session is %d bytes, want 40", got)
	}
}
