// Command lpsgd-vet runs the repository's static-analysis suite
// (internal/lint) under `go vet`:
//
//	go build -o bin/lpsgd-vet ./cmd/lpsgd-vet
//	go vet -vettool=bin/lpsgd-vet ./...
//
// The five analyzers — wirebound, simclock, commerr, golifecycle,
// obsinert — mechanically enforce the wire-format, determinism and
// concurrency invariants the repository previously stated only in
// prose; see internal/lint's package documentation for what each one
// checks and the //lint:allow escape hatch.
package main

import (
	"repro/internal/lint"
	"repro/internal/lint/driver"
)

func main() {
	driver.Main(lint.Analyzers...)
}
