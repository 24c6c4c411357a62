package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	containerhpc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/registry"
	"repro/internal/resultdb"
)

// fig2Options is the quick Fig. 2 study (three variants × {2, 4, 8,
// 16} CTE-POWER nodes, one simulated step). The pressure CG is trimmed
// from 100 to 10 iterations so that a run can populate its store
// several times; the records keep their shape and size.
func fig2Options(par int) containerhpc.Options {
	cs := containerhpc.ArteryCFDCTEPower()
	cs.SimSteps = 1
	cs.ModelCGIters = 10
	return containerhpc.Options{NodePoints: []int{2, 4, 8, 16}, Case: cs, Parallelism: par}
}

// studyReplay reads and writes the result store. Set-up populates a
// directory store with a cold quick Fig. 2 sweep, commits the saved
// records into a second, fresh directory store and reads them back,
// and serves the first store over the registry wire on a loopback
// port. The operations replay the study from the warm store: one from
// the directory and two through the registry per round, so that the
// median operation is a registry replay, which crosses every layer of
// the path (fingerprints, the directory store behind the server, the
// wire, restore, render). The commits stay in set-up because their
// fsyncs time this disk rather than the program: timed, they moved the
// round's median by more than half between runs.
type studyReplay struct {
	dir      string
	store    *resultdb.DirStore // the directory replays read through this handle
	srvStore *resultdb.DirStore // the registry server's handle on the same directory
	stop     context.CancelFunc
	served   chan error
	client   *registry.Client
	counter  *countingTransport
	cold     []byte // the cold sweep's rendering
	keys     []string
	saved    []core.SavedResult
	reps     int
	writes   int
}

func (s *studyReplay) setup(b *bench, parent int) error {
	if err := s.close(); err != nil {
		return err
	}
	s.reps++
	s.dir = filepath.Join(b.workDir, fmt.Sprintf("store-%d", s.reps))
	store, err := resultdb.Open(s.dir)
	if err != nil {
		return err
	}
	s.store = store
	var st experiments.SweepStats
	opt := fig2Options(b.par)
	opt.Store, opt.Stats = store, &st
	id := b.tr.begin(parent, "containerhpc.Fig2(cold)")
	res, err := containerhpc.Fig2(opt)
	b.tr.end(id, nil)
	if err != nil {
		return err
	}
	specs := containerhpc.Fig2Specs(opt)
	if st.Computed.Load() != int64(len(specs)) || st.Hits.Load() != 0 {
		return fmt.Errorf("cold sweep simulated %d of %d cells", st.Computed.Load(), len(specs))
	}
	var out bytes.Buffer
	res.Render(&out)
	if s.cold != nil && !bytes.Equal(out.Bytes(), s.cold) {
		return fmt.Errorf("cold sweep rendered different bytes than the previous set-up")
	}
	s.cold = out.Bytes()
	s.keys, s.saved = nil, nil
	for _, sp := range specs {
		key, err := sp.Key()
		if err != nil {
			return err
		}
		ent, ok, err := store.Lookup(key)
		if err != nil || !ok {
			return fmt.Errorf("cold sweep left no record for %s (%v)", sp.Label, err)
		}
		s.keys = append(s.keys, key)
		s.saved = append(s.saved, ent.Result)
	}
	if err := s.write(b, parent); err != nil {
		return err
	}
	return s.serve()
}

// serve starts a registry server on the store directory, on a
// loopback port the kernel picks, and dials it.
func (s *studyReplay) serve() error {
	srvStore, err := resultdb.Open(s.dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srvStore.Close()
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	s.srvStore, s.stop, s.served = srvStore, stop, make(chan error, 1)
	go func() { s.served <- registry.NewServer(srvStore, registry.ServerOptions{}).Serve(ctx, ln) }()

	s.counter = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	s.client, err = registry.Dial("http://"+ln.Addr().String(), registry.ClientOptions{
		HTTPClient: &http.Client{Transport: s.counter, Timeout: 30 * time.Second},
	})
	return err
}

// close stops the server and waits for it, and releases the stores.
func (s *studyReplay) close() error {
	var errs []error
	if s.client != nil {
		errs = append(errs, s.client.Close())
		s.counter.base.CloseIdleConnections()
		s.client = nil
	}
	if s.stop != nil {
		s.stop()
		errs = append(errs, <-s.served)
		s.stop = nil
	}
	for _, st := range []**resultdb.DirStore{&s.store, &s.srvStore} {
		if *st != nil {
			errs = append(errs, (*st).Close())
			*st = nil
		}
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

func (s *studyReplay) round(b *bench) []op {
	dir := func(b *bench, parent int) (map[string]float64, error) { return s.replay(b, parent, s.store) }
	wire := func(b *bench, parent int) (map[string]float64, error) { return s.replay(b, parent, s.client) }
	ops := []op{{"replay-dir", dir}, {"replay-registry", wire}, {"replay-registry", wire}}
	b.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// replay regenerates Fig. 2 purely from a warm store: every cell must
// hit, none may be simulated, and the rendering must equal the cold
// sweep's byte for byte.
func (s *studyReplay) replay(b *bench, parent int, store resultdb.Store) (map[string]float64, error) {
	var st experiments.SweepStats
	opt := fig2Options(b.par)
	opt.Store, opt.Stats = store, &st
	var prog *progressTail
	if b.tr != nil {
		prog = &progressTail{}
		opt.Progress = prog.note
	}
	before := store.Stats()
	requests := s.counter.n.Load()
	id := b.tr.begin(parent, "containerhpc.Fig2")
	res, err := containerhpc.Fig2(opt)
	end := time.Now()
	b.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	id = b.tr.begin(parent, "report.Render(fig2)")
	res.Render(&out)
	b.tr.end(id, nil)

	counters := map[string]float64{"cells": float64(st.Hits.Load() + st.Computed.Load())}
	for _, r := range s.saved {
		counters["messages"] += float64(r.Exec.MPI.TotalMessages)
		counters["payload_bytes"] += float64(r.Exec.MPI.TotalBytes)
		counters["cg_iters"] += r.Exec.AvgCGIters
		counters["cg_cells"]++
	}
	if store == resultdb.Store(s.client) {
		counters["requests"] = float64(s.counter.n.Load() - requests)
		counters["retries"] = float64(store.Stats().Retries - before.Retries)
	}
	if prog != nil {
		counters["tail_s"] = prog.tail(end)
	}
	return counters, checkReplay(out.Bytes(), s.cold, &st, len(s.keys), counters["retries"])
}

// checkReplay requires a warm replay that hit every cell, simulated
// none, retried nothing and rendered the cold sweep's bytes.
func checkReplay(got, cold []byte, st *experiments.SweepStats, cells int, retries float64) error {
	if h, c := st.Hits.Load(), st.Computed.Load(); h != int64(cells) || c != 0 {
		return fmt.Errorf("warm replay hit %d and simulated %d of %d cells", h, c, cells)
	}
	if retries != 0 {
		return fmt.Errorf("registry replay retried %v requests", retries)
	}
	if !bytes.Equal(got, cold) {
		return fmt.Errorf("replay rendered %d bytes that differ from the cold sweep's %d", len(got), len(cold))
	}
	return nil
}

// write commits the study's records into a fresh directory store, each
// Put syncing its file, reads them back and removes the store.
func (s *studyReplay) write(b *bench, parent int) error {
	s.writes++
	dir := filepath.Join(b.workDir, fmt.Sprintf("write-%d", s.writes))
	defer os.RemoveAll(dir)
	store, err := resultdb.Open(dir)
	if err != nil {
		return err
	}
	for i, key := range s.keys {
		id := b.tr.begin(parent, "resultdb.DirStore.Put")
		err := store.Put(key, s.saved[i])
		b.tr.end(id, nil)
		if err != nil {
			store.Close()
			return err
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	return checkRecords(dir, s.keys, s.saved)
}

// checkRecords reopens a directory store and requires every record to
// read back equal to the one written.
func checkRecords(dir string, keys []string, want []core.SavedResult) error {
	store, err := resultdb.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	for i, key := range keys {
		ent, ok, err := store.Lookup(key)
		if err != nil || !ok || ent.Err != "" {
			return fmt.Errorf("record %s does not read back (found %t, %v)", key, ok, err)
		}
		if !reflect.DeepEqual(ent.Result, want[i]) {
			return fmt.Errorf("record %s reads back different from the one written", key)
		}
	}
	return nil
}

// countingTransport counts the HTTP requests a registry client sends.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}
