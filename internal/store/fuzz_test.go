package store

import (
	"bytes"
	"testing"
)

// FuzzDiskEntry drives decodeEntry, the frame check every DiskStore read
// runs on a file's bytes, with arbitrary input. No input may panic. A
// frame decodeEntry accepts must re-encode to exactly its input bytes,
// and any bytes framed by encodeEntry must decode back to themselves.
func FuzzDiskEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := decodeEntry(data); ok {
			if back := encodeEntry(payload); !bytes.Equal(back, data) {
				t.Fatalf("accepted frame %q re-encodes to %q", data, back)
			}
		}
		if payload, ok := decodeEntry(encodeEntry(data)); !ok || !bytes.Equal(payload, data) {
			t.Fatalf("payload %q framed and decoded gives %q, ok %v", data, payload, ok)
		}
	})
}
