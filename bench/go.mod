module steelnet/bench

go 1.24

require steelnet v0.0.0

replace steelnet => ../
