package core

import "inlinered/internal/sim"

// ReportSchema versions the machine-readable report envelope. Bump it when
// a field changes meaning or an existing key is renamed; adding fields is
// backward compatible and does not require a bump.
const ReportSchema = "inlinered/report/v1"

// JSON encodes the report as stable, indented JSON with a schema envelope
// (sim.EncodeReport) — the machine-readable twin of String, locked by the
// same golden test.
func (r *Report) JSON() ([]byte, error) { return sim.EncodeReport(ReportSchema, r) }
