module genio/benchmark

go 1.24

require genio v0.0.0

replace genio => ../
