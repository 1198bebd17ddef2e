"""An IPFS-like distributed file storage (thesis section 1.5).

Content-addressed blocks with CIDv1-style identifiers and a provider
DHT mapping CIDs to hosting nodes.  Content no node hosts any more is
gone -- the drawback the thesis calls out: "a specific object could
disappear from the network if nobody decides to host it".
"""

from repro.ipfs.cid import compute_cid, verify_cid, CidError
from repro.ipfs.network import ContentNotAvailable, IpfsNetwork, IpfsNode

__all__ = [
    "compute_cid",
    "verify_cid",
    "CidError",
    "IpfsNetwork",
    "IpfsNode",
    "ContentNotAvailable",
]
