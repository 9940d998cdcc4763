"""Execute, invert, and verify tableau insertion algorithms as growth processes."""

from .lattice import Geometry, Point, Shape
from .wdgg import Instantiation, BUILTIN_INSTANTIATIONS
from .insdiag import Arrow, ColorPair, InsertionDiagram, TableRule
from .growth import ColoredTableau, GeneralizedPermutation, GrowthDiagram, run_growth
from .catalog import list_algorithms, get_algorithm, generate

__all__ = [
    "Geometry", "Point", "Shape",
    "Instantiation", "BUILTIN_INSTANTIATIONS",
    "Arrow", "ColorPair", "InsertionDiagram", "TableRule",
    "ColoredTableau", "GeneralizedPermutation", "GrowthDiagram", "run_growth",
    "list_algorithms", "get_algorithm", "generate",
]
