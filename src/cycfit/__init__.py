"""cycfit: exact-arithmetic comparison of sampled cyclotomic ideals with
higher Fitting ideals of class groups over real abelian fields.

The package holds only its version; import the layer modules
(cycfit.cli, cycfit.units, ...) directly."""

__version__ = "0.1.0"
