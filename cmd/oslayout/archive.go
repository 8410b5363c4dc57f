package main

import (
	"fmt"
	"io"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/runstore"
)

// archiveRecord stamps rec with the current time and appends it to the
// archive at dir, creating the store on first use. The notice goes to
// stderr: experiment stdout is part of the bit-identity contract and must
// not change when archiving is on.
func archiveRecord(dir string, rec *runstore.Record, stderr io.Writer) error {
	store, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	rec.CreatedUnix = time.Now().Unix()
	id, err := store.Put(rec)
	if err != nil {
		return fmt.Errorf("archiving run: %w", err)
	}
	fmt.Fprintf(stderr, "[archived run %s to %s]\n", id[:12], dir)
	return nil
}

// conflictCells projects the manifest's conflict reports — every workload
// replayed under the Base layout at the reference cache — into archive
// cells keyed like compare-grid cells.
func conflictCells(conflicts []obs.ConflictReport) []runstore.Cell {
	var cells []runstore.Cell
	for _, c := range conflicts {
		cells = append(cells, runstore.Cell{
			Strategy:  c.Layout,
			Workload:  c.Workload,
			SizeBytes: expt.DefaultCache.Size,
			CPU:       -1,
			MissRate:  c.MissRate,
		})
	}
	return cells
}
