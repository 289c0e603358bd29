// Batch command codec: the value a service group proposes into one
// consensus slot is a single string encoding many tagged client ops.
//
// The consensus stack decides values of any comparable type, and strings
// are the natural comparable container for a variable-length batch: two
// proposals are equal exactly when their encoded bytes are equal, the
// register adopt-commit's hash conflict detector hashes the bytes
// deterministically, and the decided log is trivially fingerprintable.
// The encoding is canonical — encoding the same ops always yields the
// same bytes — so "byte-identical decided logs" is a meaningful
// determinism check for the whole service.
package service

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
)

// batchMagic versions the batch encoding. Bump it when the line format
// changes; a decoder seeing an unknown header refuses the batch rather
// than misparsing it.
const batchMagic = "rsm-batch/v1"

// Tag identifies one client submission uniquely across the whole
// service: Client names the submitting session (an HTTP connection, a
// load-generator worker), Seq is a node-wide monotone sequence number.
// Distinct tags are what make otherwise identical payloads distinct
// consensus commands — the service-level form of the rsm.Tagged fix.
type Tag struct {
	Client uint32
	Seq    uint64
}

// String renders the tag as client.seq.
func (t Tag) String() string { return fmt.Sprintf("%d.%d", t.Client, t.Seq) }

// BatchOp is one tagged KV command inside a batch.
type BatchOp struct {
	Tag Tag
	Op  rsm.Op
}

// EncodeBatch renders ops as the canonical batch string: a header line
// followed by one line per op, "kind client seq key value". Keys and
// values are strconv.Quote'd, so arbitrary bytes (including newlines and
// spaces) round-trip. Every field is appended into one buffer sized for
// the batch up front.
func EncodeBatch(ops []BatchOp) string {
	// Three integers of at most 20 digits, two quote pairs, five
	// separators: 69 bytes per line besides the unescaped key and value.
	size := len(batchMagic) + 1
	for _, bo := range ops {
		size += 69 + len(bo.Op.Key) + len(bo.Op.Value)
	}
	b := make([]byte, 0, size)
	b = append(b, batchMagic...)
	b = append(b, '\n')
	for _, bo := range ops {
		b = strconv.AppendInt(b, int64(bo.Op.Kind), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(bo.Tag.Client), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, bo.Tag.Seq, 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, bo.Op.Key)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, bo.Op.Value)
		b = append(b, '\n')
	}
	return string(b)
}

// DecodeBatch parses an encoded batch back into its tagged ops.
func DecodeBatch(enc string) ([]BatchOp, error) {
	body, ok := strings.CutPrefix(enc, batchMagic+"\n")
	if !ok {
		return nil, fmt.Errorf("service: batch header missing %q prefix", batchMagic)
	}
	var ops []BatchOp
	for ln := 0; body != ""; ln++ {
		line, rest, found := strings.Cut(body, "\n")
		if !found {
			return nil, fmt.Errorf("service: batch line %d unterminated", ln)
		}
		body = rest
		bo, err := decodeBatchLine(line)
		if err != nil {
			return nil, fmt.Errorf("service: batch line %d: %w", ln, err)
		}
		ops = append(ops, bo)
	}
	return ops, nil
}

func decodeBatchLine(line string) (BatchOp, error) {
	var bo BatchOp
	fields, err := splitBatchFields(line)
	if err != nil {
		return bo, err
	}
	kind, err := strconv.Atoi(fields[0])
	if err != nil {
		return bo, fmt.Errorf("bad kind %q", fields[0])
	}
	switch rsm.OpKind(kind) {
	case rsm.OpSet, rsm.OpDel, rsm.OpInc:
		bo.Op.Kind = rsm.OpKind(kind)
	default:
		return bo, fmt.Errorf("unknown op kind %d", kind)
	}
	client, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return bo, fmt.Errorf("bad client %q", fields[1])
	}
	seq, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return bo, fmt.Errorf("bad seq %q", fields[2])
	}
	bo.Tag = Tag{Client: uint32(client), Seq: seq}
	if bo.Op.Key, err = strconv.Unquote(fields[3]); err != nil {
		return bo, fmt.Errorf("bad key %s", fields[3])
	}
	if bo.Op.Value, err = strconv.Unquote(fields[4]); err != nil {
		return bo, fmt.Errorf("bad value %s", fields[4])
	}
	return bo, nil
}

// splitBatchFields splits a batch line into exactly five fields: three
// space-delimited integers and two quoted strings. Quoted strings never
// contain raw spaces-after-backslash ambiguity — strconv.Quote escapes
// every byte that matters — but they may contain spaces, so the split
// walks quotes instead of strings.Fields.
func splitBatchFields(line string) ([5]string, error) {
	var out [5]string
	rest := line
	for i := 0; i < 3; i++ {
		f, r, found := strings.Cut(rest, " ")
		if !found {
			return out, fmt.Errorf("want 5 fields, ran out at %d", i)
		}
		out[i], rest = f, r
	}
	q, r, err := cutQuoted(rest)
	if err != nil {
		return out, err
	}
	out[3] = q
	rest, ok := strings.CutPrefix(r, " ")
	if !ok {
		return out, fmt.Errorf("missing value field")
	}
	if out[4], r, err = cutQuoted(rest); err != nil {
		return out, err
	}
	if r != "" {
		return out, fmt.Errorf("trailing garbage %q", r)
	}
	return out, nil
}

// cutQuoted splits one leading Go-quoted string off s, returning the
// quoted literal (including its quotes) and the remainder.
func cutQuoted(s string) (quoted, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '"':
			return s[:i+1], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string %q", s)
}
