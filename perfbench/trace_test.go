package main

import (
	"strings"
	"testing"
	"time"
)

func TestAnalyzeSelfTimes(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Layer: layerRoot, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerFabric, Name: "client.complete", Start: 10, End: 50},
		{ID: 3, Parent: 2, Layer: layerFabric, Name: "server.complete", Start: 15, End: 45},
		{ID: 4, Parent: noParent, Layer: layerCheckpoint, Name: "checkpoint.Sync", Start: 20, End: 30},
		{ID: 5, Parent: 1, Layer: layerWorker, Name: "worker.CountBlocks", Start: 50, End: 90},
		// Nothing contains this one: it is a root of its own.
		{ID: 6, Parent: noParent, Layer: layerCheckpoint, Name: "checkpoint.Rename", Start: 95, End: 105},
	}
	b, err := tr.analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{layerRoot: 20, layerFabric: 30, layerCheckpoint: 20, layerWorker: 40}
	for l, d := range want {
		if b.self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, b.self[l], d)
		}
	}
	if b.total != 110 {
		t.Errorf("total = %v, want 110ns", b.total)
	}
}

func TestAnalyzeRejectsOverlap(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Layer: layerRoot, Start: 0, End: 100e3},
		{ID: 2, Parent: 1, Layer: layerSim, Start: 0, End: 60e3},
		{ID: 3, Parent: 1, Layer: layerDecoder, Start: 40e3, End: 100e3},
	}
	if _, err := tr.analyze(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("analyze = %v, want an overlap error", err)
	}
}

func TestKeepWithin(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Layer: layerFabric, Start: 0, End: 20},             // starts before the window
		{ID: 2, Parent: 1, Layer: layerFabric, Start: 12, End: 18}, // its child is inside, but orphaned
		{ID: 3, Layer: layerFabric, Start: 30, End: 40},
		{ID: 4, Parent: 3, Layer: layerFabric, Start: 31, End: 39},
		{ID: 5, Parent: noParent, Layer: layerCheckpoint, Start: 33, End: 34},
	}
	tr.keepWithin(10, 50)
	var ids []int64
	for _, s := range tr.spans {
		ids = append(ids, s.ID)
	}
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 4 || ids[2] != 5 {
		t.Fatalf("kept %v, want [3 4 5]", ids)
	}
}
