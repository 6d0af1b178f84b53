package main

import (
	"testing"

	"steelnet/internal/cli"
	"steelnet/internal/cli/clitest"
)

func TestSkeleton(t *testing.T) { clitest.Skeleton(t, run, "topobench", cli.Workers|cli.SimTelemetry) }
