package sim

import (
	"bytes"
	"encoding/json"
)

// EncodeReport encodes a virtual-time report as stable, indented JSON inside
// the {"schema", "report"} envelope every report type shares, so downstream
// tooling (the bench harness, CI diffing) can reject encodings it does not
// understand. Durations are integer nanoseconds and every field is tagged,
// so two identical reports encode to identical bytes.
func EncodeReport(schema string, report any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	env := struct {
		Schema string `json:"schema"`
		Report any    `json:"report"`
	}{schema, report}
	if err := enc.Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
