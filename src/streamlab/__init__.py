"""streamlab: a desk-scale lab for measuring the runtime overhead of a
unified dataflow layer over native mini stream engines."""
