package main

import (
	"testing"

	"steelnet/internal/cli"
	"steelnet/internal/cli/clitest"
)

func TestSkeleton(t *testing.T) {
	clitest.Skeleton(t, run, "instaplcd", cli.Workers|cli.Checkpoints|cli.SimTelemetry)
}
