"""Clustering-attention vision backbone with hand-written gradients.

The package is organized bottom-up:

* ``tensor``    dense primitives, each returning (output, backward closure)
* ``container`` binary tensor archive used for checkpoints and traces
* ``pfe``       coordinate-augmented patch embedding and positional residual
* ``gfc``       the clustering block: aggregate, fuse, hard-assign, dispatch, then ``T.ffn``
* ``icp``       inter-stage pooling in assignment space
* ``interpret`` receptive-field tracing and overlay rendering
"""
