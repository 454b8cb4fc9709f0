"""Exception hierarchy shared by all mgt modules."""


class MgtError(Exception):
    """Base class for all library errors."""


class InputError(MgtError):
    """Malformed graph file or other unparseable input."""


class DisconnectedGraph(MgtError):
    pass


class NonPositiveLength(MgtError):
    pass


class BadVertexId(MgtError):
    pass


class NonPositiveScale(MgtError):
    pass


class BadPoint(MgtError):
    pass


class BadM(MgtError):
    pass


class BadN(MgtError):
    pass


class TooLarge(MgtError):
    """A graph an operation or a family scan would build is over the limit of
    ``graph.check_size``. The identity suite reports a check that meets one as
    skipped: the limit says nothing about the identity."""


class UnknownIdentity(MgtError):
    """An identity id that is not in the suite catalog."""


class UnknownParameter(MgtError):
    """A scan parameter key that the family does not read."""


class EmptyGrid(MgtError):
    """A scan parameter whose grid holds no value, so the scan would check nothing."""


class EmptyGraph(MgtError):
    """A graph with no edges where the computation needs at least one."""


class NonPolynomialIntegrand(MgtError):
    """A guard sample did not match the fitted polynomial."""


class SamePoint(MgtError):
    pass


class BridgeDeletion(MgtError):
    pass


class HasBridge(MgtError):
    pass


class NotBridgeless(MgtError):
    pass
