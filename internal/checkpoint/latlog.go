// Latency log: an append-only JSONL sink for the online decode
// service's per-window latency samples, one internal/frame line per
// record, read back with the store's torn-tail rule (frame.ReadLog).
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/fpn/flagproxy/internal/frame"
)

// LatencyRec is one decoded window's latency sample.
type LatencyRec struct {
	Window  int    `json:"w"`
	Status  string `json:"st"`
	Decoder string `json:"dec,omitempty"`
	Ns      int64  `json:"ns"`
}

// LatencyLog appends latency records to a file. Safe for concurrent
// Append calls (the decode workers of an rtd server share one log).
type LatencyLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenLatencyLog opens (creating if needed) the append-only log at
// path.
func OpenLatencyLog(path string) (*LatencyLog, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: latency log: %w", err)
	}
	return &LatencyLog{f: f}, nil
}

// Append writes one framed record.
func (l *LatencyLog) Append(rec LatencyRec) error {
	line, err := frame.Encode(Version, rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.f.Write(line)
	return err
}

// Close closes the underlying file.
func (l *LatencyLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReadLatencies loads every record from the log at path. A trailing
// newline-less fragment — the expected artifact of a writer killed
// mid-append — is dropped and reported via tornTail, unless it decodes
// with a valid CRC, in which case it is kept; any other damage (bad
// JSON, CRC mismatch, wrong version) is an error naming the line.
func ReadLatencies(path string) (recs []LatencyRec, tornTail bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	tornTail, err = frame.ReadLog(Version, data, func(rec json.RawMessage) error {
		var r LatencyRec
		if err := json.Unmarshal(rec, &r); err != nil {
			return fmt.Errorf("bad record: %v", err)
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: latency log %s %w", path, err)
	}
	return recs, tornTail, nil
}
