package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
)

// readSpans decodes a JSON-lines span stream (blank lines skipped).
func readSpans(r io.Reader) ([]SpanEvent, error) {
	var out []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("bad span line %q: %w", line, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// TestJSONLSinkConcurrentWrites hammers one JSONL sink from many
// goroutines (parallel grid runs share a sink) and asserts the stream
// stays line-atomic: every line parses, nothing is torn or interleaved,
// and no span is lost.
func TestJSONLSinkConcurrentWrites(t *testing.T) {
	const goroutines, perG = 16, 200
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i + 1)
				// Reads mirrors ID so a torn/interleaved line shows up as a
				// parse failure or a mismatched pair.
				sink.Span(&SpanEvent{ID: id, Name: "op", Reads: int64(id), IO: int64(id)})
			}
		}(g)
	}
	wg.Wait()

	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatalf("stream corrupted: %v", err)
	}
	for _, sp := range spans {
		if sp.Reads != int64(sp.ID) || sp.Name != "op" {
			t.Fatalf("torn span: %+v", sp)
		}
	}
	if len(spans) != goroutines*perG {
		t.Fatalf("lost spans: %d, want %d", len(spans), goroutines*perG)
	}
}

// TestCollectorConcurrentWrites is the collector-sink counterpart: no
// lost or corrupted spans under concurrent Span/reader traffic.
func TestCollectorConcurrentWrites(t *testing.T) {
	const goroutines, perG = 16, 200
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i + 1)
				c.Span(&SpanEvent{ID: id, Reads: int64(id)})
				if i%64 == 0 {
					_ = c.Spans() // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	spans := c.Spans()
	if len(spans) != goroutines*perG {
		t.Fatalf("collected %d spans, want %d", len(spans), goroutines*perG)
	}
	for _, sp := range spans {
		if sp.Reads != int64(sp.ID) {
			t.Fatalf("corrupted span: id=%d reads=%d", sp.ID, sp.Reads)
		}
	}
}

// TestJSONLSinkLineAtomicityRaw re-checks line atomicity at the byte
// level: every newline-delimited chunk must be a standalone JSON object.
func TestJSONLSinkLineAtomicityRaw(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Span(&SpanEvent{ID: uint64(i + 1), Name: "x", Attrs: []Attr{{Key: "i", Val: int64(i)}}})
			}
		}()
	}
	wg.Wait()
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("line %d is not standalone JSON: %q", i, line)
		}
	}
}
