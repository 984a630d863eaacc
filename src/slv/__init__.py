"""Realtime delay-based verification of webserver locations.

Distributed verifiers measure TCP handshake RTTs to a target and to each
other; a manager accepts an asserted location when the delays place the
target inside a circle spanned by a verifier pair. Clients can pin the
verified regions per domain and classify later results against them. A
deterministic simulator reproduces false-accept and false-reject
experiments without any network.
"""

from .agent import (
    AgentConnection,
    AgentServer,
    MeasureRequest,
    MeasureResponse,
    PeerSpec,
    ProtocolError,
    handle_measure_request,
    measure_rtt,
)
from .geo import (
    EARTH_RADIUS_KM,
    AntipodalPointsError,
    Circle,
    DegenerateTriangleError,
    Location,
    Triangle,
    destination_point,
    geodesic_midpoint,
    great_circle_distance,
    min_rtt_for_distance,
    point_in_circle,
    point_in_spherical_triangle,
)
from .manager import (
    AgentPool,
    CacheEntry,
    HttpLocator,
    InsufficientVerifiersError,
    InvalidAddressError,
    LiveDelayProvider,
    LocatorConfig,
    ManagerConfig,
    ManagerHTTPServer,
    ManagerService,
    ParseError,
    ProviderUnavailableError,
    StaticTableLocator,
    UnknownAddressError,
    VerificationCache,
    VerifierRecord,
    VerifierRegistry,
    load_verifier_registry,
)
from .pinning import (
    DEFAULT_RMAX,
    CorruptStoreError,
    Outcome,
    PinEntry,
    containment_check,
    evaluate_pin,
    load_store,
    persist_store,
)
from .simulator import (
    Adversary,
    DelayModel,
    ExperimentReport,
    RegionBounds,
    ScenarioError,
    SimDelayProvider,
    SimScenario,
    SimServer,
    generate_scenario,
    run_experiment,
    simulated_rtt,
)
from .verify import (
    TARGET,
    DelayProvider,
    IPInfo,
    Reason,
    VerificationResult,
    VerifierLayout,
    VerifyConfig,
    apply_lastmile_correction,
    circle_of_pair,
    enumerate_triangles,
    thales_accept,
    verify_location,
)

__version__ = "0.1.0"
