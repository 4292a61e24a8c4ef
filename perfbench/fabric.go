package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fabric"
)

// endpoints are the worker-facing fabric endpoints, in report order.
var endpoints = []string{"job", "lease", "complete", "heartbeat", "abandon"}

// spanHeader carries the client span id to the server wrapper, so a
// handler span names the request span that caused it.
const spanHeader = "X-Perfbench-Span"

// workerPoll is the fabric worker's idle polling cadence. The default
// (200ms) would add a race-dependent 0–200ms idle gap at every point
// boundary; the benchmark measures the data path, not the poll timer.
const workerPoll = 5 * time.Millisecond

// wire counts the fabric traffic of one phase. With a tracer it also
// records a span per request on both sides of the connection.
type wire struct {
	tr     *tracer
	root   int64        // the worker lane's root span
	failed atomic.Int64 // requests that errored or answered >= 400
	total  atomic.Int64
	bytes  atomic.Int64 // request plus response body bytes

	mu    sync.Mutex
	calls []call //guarded by mu: main-loop requests, for gap attribution
}

// call is one completed worker main-loop request: its client span and
// what the coordinator answered.
type call struct {
	span       span
	status, fp string
}

func endpointOf(path string) string {
	ep := strings.TrimPrefix(path, "/v1/")
	if i := strings.IndexByte(ep, '?'); i >= 0 {
		ep = ep[:i]
	}
	return ep
}

// clientTransport is the worker's http.RoundTripper: it counts every
// request and, when tracing, times it from send until the worker closes
// the response body.
type clientTransport struct {
	base http.RoundTripper
	w    *wire
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.w.total.Add(1)
	if req.ContentLength > 0 {
		c.w.bytes.Add(req.ContentLength)
	}
	ep := endpointOf(req.URL.Path)
	id, start := c.w.tr.newID(), c.w.tr.now()
	if c.w.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.w.failed.Add(1)
		return nil, err
	}
	if resp.StatusCode >= 400 {
		c.w.failed.Add(1) // the worker retries it
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, w: c.w, ep: ep, id: id, start: start}
	return resp, nil
}

// timedBody ends a request's client span when the worker closes the
// response, keeping the head of the body to learn the reply's status.
type timedBody struct {
	io.ReadCloser
	w     *wire
	ep    string
	id    int64
	start int64
	n     int
	head  []byte
	done  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	if b.w.tr != nil && len(b.head) < 512 {
		b.head = append(b.head, p[:min(n, 512-len(b.head))]...)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done {
		return err
	}
	b.done = true
	b.w.bytes.Add(int64(b.n))
	if b.w.tr == nil {
		return err
	}
	s := span{ID: b.id, Layer: layerFabric, Name: "client." + b.ep, Start: b.start, End: b.w.tr.now()}
	if b.ep == "heartbeat" {
		b.w.tr.record(s) // the heartbeat goroutine runs beside the worker loop: a root of its own
		return err
	}
	s.Parent = b.w.root
	b.w.mu.Lock()
	b.w.calls = append(b.w.calls, call{span: s, status: stringField(b.head, "status"), fp: stringField(b.head, "fingerprint")})
	b.w.mu.Unlock()
	return err
}

// stringField finds "key":"value" in the head of a JSON reply (a job
// announcement is too long to keep whole, so it cannot be unmarshalled).
func stringField(head []byte, key string) string {
	s := string(head)
	i := strings.Index(s, `"`+key+`":"`)
	if i < 0 {
		return ""
	}
	s = s[i+len(key)+4:]
	if j := strings.IndexByte(s, '"'); j >= 0 {
		return s[:j]
	}
	return ""
}

// serverTimer wraps Coordinator.Handler(), recording a span per request
// as a child of the client span named in the request header.
type serverTimer struct {
	next http.Handler
	w    *wire
}

func (s *serverTimer) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := s.w.tr.now()
	s.next.ServeHTTP(rw, r)
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		parent = noParent
	}
	s.w.tr.record(span{Parent: parent, Layer: layerFabric, Name: "server." + endpointOf(r.URL.Path), Start: start, End: s.w.tr.now()})
}

// timingFS is the checkpoint.FS given to the ledger through
// checkpoint.Options.FS: the real filesystem, with every call timed.
// Its spans are adopted by the handler span they happen inside.
type timingFS struct {
	inner checkpoint.FS
	tr    *tracer
	bytes atomic.Int64 // bytes written
}

func (f *timingFS) span(name string, start int64) {
	f.tr.record(span{Parent: noParent, Layer: layerCheckpoint, Name: "checkpoint." + name, Start: start, End: f.tr.now()})
}

func (f *timingFS) MkdirAll(dir string) error {
	t := f.tr.now()
	err := f.inner.MkdirAll(dir)
	f.span("MkdirAll", t)
	return err
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t := f.tr.now()
	data, err := f.inner.ReadFile(name)
	f.span("ReadFile", t)
	return data, err
}

func (f *timingFS) IsNotExist(err error) bool { return f.inner.IsNotExist(err) }

func (f *timingFS) WriteFile(name string, data []byte) error {
	t := f.tr.now()
	err := f.inner.WriteFile(name, data)
	f.bytes.Add(int64(len(data)))
	f.span("WriteFile", t)
	return err
}

func (f *timingFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	t := f.tr.now()
	file, err := f.inner.CreateTemp(dir, pattern)
	f.span("CreateTemp", t)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t := f.tr.now()
	err := f.inner.Rename(oldpath, newpath)
	f.span("Rename", t)
	return err
}

func (f *timingFS) Remove(name string) error {
	t := f.tr.now()
	err := f.inner.Remove(name)
	f.span("Remove", t)
	return err
}

func (f *timingFS) SyncDir(dir string) error {
	t := f.tr.now()
	err := f.inner.SyncDir(dir)
	f.span("SyncDir", t)
	return err
}

type timingFile struct {
	checkpoint.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	t := f.fs.tr.now()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	f.fs.span("Write", t)
	return n, err
}

func (f *timingFile) Sync() error {
	t := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.span("Sync", t)
	return err
}

func (f *timingFile) Close() error {
	t := f.fs.tr.now()
	err := f.File.Close()
	f.fs.span("Close", t)
	return err
}

// fabricPhase is a fabric sweep's outcome beyond the committed points.
type fabricPhase struct {
	*phase
	// Traffic inside the measured window.
	requests, failedRequests, wireBytes, ledgerBytes int64
}

// runFabric serves a coordinator (with a checkpoint ledger in a fresh
// temp dir) on loopback, runs one fabric.RunWorker beside it, and drives
// the sweep through Coordinator.RunPoint. With a tracer, the worker's
// transport, the coordinator's handler and the ledger's filesystem are
// timed.
func runFabric(ctx context.Context, w *workload, pl *experiment.Pipeline, seed int64, budget time.Duration, tr *tracer, tmp string) (_ *fabricPhase, err error) {
	dir, err := os.MkdirTemp(tmp, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wr := &wire{tr: tr}
	var fsys checkpoint.FS = checkpoint.OSFS()
	tfs := &timingFS{inner: fsys, tr: tr}
	if tr != nil {
		fsys = tfs
	}
	store, err := checkpoint.OpenOptions(dir, checkpoint.Options{FS: fsys})
	if err != nil {
		return nil, err
	}
	co := fabric.NewCoordinator(fabric.Options{Store: store})
	var h http.Handler = co.Handler()
	if tr != nil {
		h = &serverTimer{next: h, w: wr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // past the deadline the remaining connections are dropped
		if serr := <-srvDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}()

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: &clientTransport{base: transport, w: wr}, Timeout: time.Minute}
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- fabric.RunWorker(wctx, fabric.WorkerOptions{
			URL: "http://" + ln.Addr().String(), ID: "w0", Client: client, Poll: workerPoll,
		})
	}()
	workerExited := false
	defer func() {
		stopWorker()
		if !workerExited {
			<-workerDone
		}
	}()
	fp := &fabricPhase{phase: &phase{}}

	wr.root = tr.newID()
	rootStart := tr.now()
	req0, fail0, bytes0, ledger0 := wr.total.Load(), wr.failed.Load(), wr.bytes.Load(), tfs.bytes.Load()
	m := startMeter()
	for i := 0; i == 0 || time.Since(m.start) < budget; i++ {
		cfg := w.pointConfig(pl, seed, i)
		t := time.Now()
		res, err := co.RunPoint(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("fabric point %d: %w", i, err)
		}
		p := pointOf(cfg, res)
		p.wall = time.Since(t)
		fp.points = append(fp.points, p)
	}
	m.stop(fp.phase)
	rootEnd := tr.now()
	fp.requests, fp.failedRequests = wr.total.Load()-req0, wr.failed.Load()-fail0
	fp.wireBytes, fp.ledgerBytes = wr.bytes.Load()-bytes0, tfs.bytes.Load()-ledger0

	co.Shutdown()
	select {
	case werr := <-workerDone:
		workerExited = true
		if werr != nil {
			return nil, fmt.Errorf("fabric worker: %w", werr)
		}
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("fabric worker did not exit after shutdown")
	}
	if tr != nil {
		wr.finishTrace(rootStart, rootEnd)
	}
	return fp, nil
}

// finishTrace closes the worker lane: it records the lane root and the
// worker's requests inside the measured window, turns the gaps between
// requests into spans — decode work after a granted lease, the runner
// rebuild after a job poll that announced a new point — and drops the
// traffic outside the window. Gaps after an idle or wait answer stay
// uncovered: they are "other".
func (w *wire) finishTrace(start, end int64) {
	w.mu.Lock()
	calls := w.calls
	w.mu.Unlock()
	w.tr.record(span{ID: w.root, Layer: layerRoot, Name: "fabric.RunWorker", Start: start, End: end})
	fp := ""
	for i, c := range calls {
		prev := fp
		if c.status == "job" {
			fp = c.fp
		}
		if c.span.Start < start || c.span.End > end {
			continue
		}
		w.tr.record(c.span)
		next := end
		if i+1 < len(calls) {
			next = min(end, calls[i+1].span.Start)
		}
		switch {
		case c.status == "lease":
			w.tr.record(span{Parent: w.root, Layer: layerWorker, Name: "worker.CountBlocks", Start: c.span.End, End: next})
		case c.status == "job" && c.fp != prev:
			w.tr.record(span{Parent: w.root, Layer: layerSetup, Name: "worker.prepare", Start: c.span.End, End: next})
		}
	}
	w.tr.keepWithin(start, end)
}
