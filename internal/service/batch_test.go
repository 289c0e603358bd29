package service

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
)

func TestBatchRoundTrip(t *testing.T) {
	ops := []BatchOp{
		{Tag: Tag{Client: 1, Seq: 1}, Op: rsm.Op{Kind: rsm.OpSet, Key: "plain", Value: "v1"}},
		{Tag: Tag{Client: 2, Seq: 9}, Op: rsm.Op{Kind: rsm.OpInc, Key: "counter"}},
		{Tag: Tag{Client: 3, Seq: 2}, Op: rsm.Op{Kind: rsm.OpDel, Key: "gone"}},
		{Tag: Tag{Client: 0, Seq: 18446744073709551615}, Op: rsm.Op{
			Kind: rsm.OpSet, Key: "spaces and\nnewlines", Value: `quotes " and \ slashes`,
		}},
		{Tag: Tag{Client: 4294967295, Seq: 4}, Op: rsm.Op{Kind: rsm.OpSet, Key: "", Value: ""}},
	}
	enc := EncodeBatch(ops)
	// The exact rsm-batch/v1 bytes: decided logs are compared and
	// fingerprinted byte for byte, so the encoder's output is pinned, not
	// just its round trip.
	const golden = `rsm-batch/v1
1 1 1 "plain" "v1"
3 2 9 "counter" ""
2 3 2 "gone" ""
1 0 18446744073709551615 "spaces and\nnewlines" "quotes \" and \\ slashes"
1 4294967295 4 "" ""
`
	if enc != golden {
		t.Fatalf("encoding drifted from rsm-batch/v1:\n got %q\nwant %q", enc, golden)
	}
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d round-tripped as %+v, want %+v", i, got[i], ops[i])
		}
	}
	// Canonical: re-encoding the decoded ops reproduces the bytes.
	if re := EncodeBatch(got); re != enc {
		t.Fatalf("re-encoding is not canonical:\n%q\nvs\n%q", re, enc)
	}
}

func TestBatchEncodingCanonical(t *testing.T) {
	ops := []BatchOp{{Tag: Tag{Client: 7, Seq: 3}, Op: rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "v"}}}
	if EncodeBatch(ops) != EncodeBatch(ops) {
		t.Fatal("encoding the same ops twice produced different bytes")
	}
	if EncodeBatch(nil) != batchMagic+"\n" {
		t.Fatalf("empty batch = %q, want bare header", EncodeBatch(nil))
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	good := EncodeBatch([]BatchOp{{Tag: Tag{Client: 1, Seq: 1}, Op: rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "v"}}})
	cases := []struct{ name, enc string }{
		{"empty", ""},
		{"wrong magic", "rsm-batch/v0\n"},
		{"missing header newline", batchMagic},
		{"unterminated line", batchMagic + "\n0 1 1 \"k\" \"v\""},
		{"unknown kind", batchMagic + "\n99 1 1 \"k\" \"v\"\n"},
		{"non-integer kind", batchMagic + "\nx 1 1 \"k\" \"v\"\n"},
		{"negative client", batchMagic + "\n0 -1 1 \"k\" \"v\"\n"},
		{"client overflow", batchMagic + "\n0 4294967296 1 \"k\" \"v\"\n"},
		{"unquoted key", batchMagic + "\n0 1 1 k \"v\"\n"},
		{"unterminated quote", batchMagic + "\n0 1 1 \"k \"v\"\n"},
		{"missing value", batchMagic + "\n0 1 1 \"k\"\n"},
		{"trailing garbage", batchMagic + "\n0 1 1 \"k\" \"v\" extra\n"},
		{"truncated fields", batchMagic + "\n0 1\n"},
		{"good line then bad", good + "garbage\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ops, err := DecodeBatch(tc.enc); err == nil {
				t.Fatalf("decoded %q as %+v, want error", tc.enc, ops)
			}
		})
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([]BatchOp{{Tag: Tag{Client: 1, Seq: 2}, Op: rsm.Op{Kind: rsm.OpInc, Key: "k"}}}))
	f.Add(batchMagic + "\n")
	f.Add("0 1 1 \"k\" \"v\"\n")
	f.Fuzz(func(t *testing.T, enc string) {
		ops, err := DecodeBatch(enc)
		if err != nil {
			return
		}
		// The decoder may accept non-canonical spellings (leading zeros,
		// alternative quote escapes), but one re-encode must reach the
		// canonical fixed point: encode(decode(x)) round-trips exactly.
		canon := EncodeBatch(ops)
		again, err := DecodeBatch(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding %q does not decode: %v", canon, err)
		}
		if EncodeBatch(again) != canon {
			t.Fatalf("encode/decode did not reach a fixed point for %q", enc)
		}
	})
}
