module storm/benchmark

go 1.22

require storm v0.0.0

replace storm => ../
