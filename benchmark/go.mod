module egoist/benchmark

go 1.21

require egoist v0.0.0

replace egoist => ../
