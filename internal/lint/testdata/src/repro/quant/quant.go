// Package quant is a minimal stand-in for the real repro/quant: the
// encoder whose EncodeTo result commerr protects.
package quant

import "io"

// Encoder mirrors the framed stream encoder.
type Encoder struct{}

func (*Encoder) EncodeTo(w io.Writer, data []float32) error { return nil }
