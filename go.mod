module fxnet

go 1.23
