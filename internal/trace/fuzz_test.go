package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceParse drives Parse with arbitrary bytes, as `ltsim -trace`
// does with a trace file. No input may panic. A trace Parse accepts must
// pass Validate, and Write, Parse, Write must give the same bytes twice:
// the written form is canonical and Parse accepts it.
func FuzzTraceParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Parse accepted a trace that fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := tr.Write(&first); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatalf("re-parsed trace does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write, Parse, Write changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
