package core

import (
	"bytes"
	"fmt"
	"io"

	"dcfail/internal/fot"
)

// Section is one independently renderable unit of the full report: a
// paper table, figure, or summary. Render receives the shared immutable
// TraceIndex and writes the section's text to w. Sections must not
// mutate anything reachable from the index — that is what makes them
// safe to fan out.
type Section struct {
	ID     string
	Render func(ix *fot.TraceIndex, w io.Writer) error
}

// SectionResult is one rendered section: its buffered text and the error
// (if any) that stopped it. Text holds whatever the section wrote before
// failing, so serial streaming semantics can be replayed exactly.
type SectionResult struct {
	ID   string
	Text []byte
	Err  error
}

// ReportBundle is the collected output of a RunAll: every section's
// result, in the submitted order regardless of completion order.
type ReportBundle struct {
	Sections []SectionResult
}

// Err returns the first section error in report order, wrapped with the
// section id — the same error WriteTo would surface.
func (b *ReportBundle) Err() error {
	for _, s := range b.Sections {
		if s.Err != nil {
			return fmt.Errorf("%s: %w", s.ID, s.Err)
		}
	}
	return nil
}

// WriteTo replays the bundle as the serial renderer would have streamed
// it: each section's text in order followed by a blank separator line; a
// failed section contributes its partial text and stops the report with
// the wrapped error.
func (b *ReportBundle) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, s := range b.Sections {
		n, err := w.Write(s.Text)
		written += int64(n)
		if err != nil {
			return written, err
		}
		if s.Err != nil {
			return written, fmt.Errorf("%s: %w", s.ID, s.Err)
		}
		n2, err := fmt.Fprintln(w)
		written += int64(n2)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Runner fans report sections out across a worker pool. The zero value
// uses one worker per CPU.
type Runner struct {
	// Workers caps the number of concurrent sections; <= 0 means
	// runtime.NumCPU().
	Workers int
}

// RunAll renders every section against the shared index and returns the
// bundle. Each section renders into its own buffer, so concurrent
// sections never interleave output; result order is submission order.
func (r Runner) RunAll(ix *fot.TraceIndex, sections []Section) *ReportBundle {
	results := make([]SectionResult, len(sections))
	Pool{Workers: r.Workers}.Run(len(sections), nil, func(i int) {
		var buf bytes.Buffer
		err := sections[i].Render(ix, &buf)
		results[i] = SectionResult{ID: sections[i].ID, Text: buf.Bytes(), Err: err}
	})
	return &ReportBundle{Sections: results}
}
