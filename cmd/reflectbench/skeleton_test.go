package main

import (
	"testing"

	"steelnet/internal/cli"
	"steelnet/internal/cli/clitest"
)

func TestSkeleton(t *testing.T) {
	clitest.Skeleton(t, run, "reflectbench", cli.Workers|cli.SimTelemetry)
}
