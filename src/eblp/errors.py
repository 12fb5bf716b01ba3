"""Exception types shared across the package."""


class EblpError(Exception):
    """Base class for all library errors."""


class SpectrumDomainError(EblpError, ValueError):
    """Evaluation point lies inside (or too close to) the residual bulk."""


class RankError(EblpError, ValueError):
    """Requested rank or component index is out of range."""


class ShapeError(EblpError, ValueError):
    """Inconsistent array dimensions."""


class DegenerateCoordinateError(EblpError, ValueError):
    """Some coordinates are (almost) never observed, so M-hat is singular.

    Carries the offending coordinate indices in ``coordinates``.
    """

    def __init__(self, coordinates, floor):
        self.coordinates = list(coordinates)
        self.floor = floor
        shown = ", ".join(str(c) for c in self.coordinates[:20])
        if len(self.coordinates) > 20:
            shown += ", ..."
        super().__init__(
            f"{len(self.coordinates)} coordinate(s) with mean transform weight "
            f"below {floor:g}: [{shown}]"
        )


class ParseError(EblpError, ValueError):
    """Malformed input file (matrix, mask, model, or config)."""
