"""The contract corpus: Scilla sources mirroring the paper's dataset.

The paper analyses the 49 unique contracts of Zilliqa mainnet/testnet
(Fig. 12).  Those sources are not all public, so this corpus re-creates
them from their names and published descriptions: the five contracts
of the throughput evaluation in full, plus token, application and
infrastructure contracts covering the same range of shapes (1–11
transitions, fungible and non-fungible state, additive counters,
escrows, registries, unsummarisable patterns).

``CORPUS`` maps contract name → Scilla source.  ``EVAL_CONTRACTS``
lists the five contracts of Sec. 5.2 with the sharding selections the
paper uses.
"""

from .crowdfunding import CROWDFUNDING
from .fungible_token import FUNGIBLE_TOKEN
from .nonfungible_token import NONFUNGIBLE_TOKEN
from .proof_ipfs import PROOF_IPFS
from .ud_registry import UD_REGISTRY
from . import corpus_apps as _apps
from . import corpus_misc as _misc
from . import corpus_tokens as _tokens
from .xsgd import XSGD

CORPUS: dict[str, str] = {
    # The five contracts of the throughput evaluation (Sec. 5.2).
    "FungibleToken": FUNGIBLE_TOKEN,
    "Crowdfunding": CROWDFUNDING,
    "NonfungibleToken": NONFUNGIBLE_TOKEN,
    "ProofIPFS": PROOF_IPFS,
    "UD_registry": UD_REGISTRY,
    # Token family.
    "XSGD": XSGD,
    "Superplayer_token": _tokens.SUPERPLAYER_TOKEN,
    "OTS200": _tokens.OTS200,
    "Hybrid_Euro": _tokens.HYBRID_EURO,
    "Zeecash": _tokens.ZEECASH,
    "DPSTokenHub": _tokens.DPS_TOKEN_HUB,
    "SimpleBondingCurve": _tokens.SIMPLE_BONDING_CURVE,
    "MyRewardsToken": _tokens.MY_REWARDS_TOKEN,
    "ZKToken": _tokens.ZK_TOKEN,
    "LUY_Cambodia": _tokens.LUY_CAMBODIA,
    "OceanRumble_minion_token": _tokens.OCEAN_RUMBLE_MINION_TOKEN,
    "Cryptoman": _tokens.CRYPTOMAN,
    # Applications.
    "Blackjack": _apps.BLACKJACK,
    "CelebrityNFT": _apps.CELEBRITY_NFT,
    "DBond": _apps.DBOND,
    "Oracle": _apps.ORACLE,
    "AuctionRegistrar": _apps.AUCTION_REGISTRAR,
    "SwapContract": _apps.SWAP_CONTRACT,
    "DinoMighty": _apps.DINO_MIGHTY,
    "OceanRumble_crate": _apps.OCEAN_RUMBLE_CRATE,
    "SocialPay": _apps.SOCIAL_PAY,
    "RoadDamage": _apps.ROAD_DAMAGE,
    "IOU": _apps.IOU,
    "HydraXSettlement": _apps.HYDRAX_SETTLEMENT,
    "PayRespect": _apps.PAY_RESPECT,
    "Bookstore": _apps.BOOKSTORE,
    "LikeMaster": _apps.LIKE_MASTER,
    "BoltAnalytics": _apps.BOLT_ANALYTICS,
    "Voting": _apps.VOTING,
    "LoveZilliqa": _apps.LOVE_ZILLIQA,
    "Quizbot": _apps.QUIZBOT,
    "BunkeringLog": _apps.BUNKERING_LOG,
    "Soundario": _apps.SOUNDARIO,
    "GoFundMi": _apps.GO_FUND_MI,
    # Infrastructure, UD family, and demo contracts.
    "Map_cornercases": _misc.MAP_CORNERCASES,
    "HTLC": _misc.HTLC,
    "Multisig": _misc.MULTISIG,
    "LandMRToken": _misc.LAND_MR_TOKEN,
    "ProxyContract": _misc.PROXY_CONTRACT,
    "UD_operator_contract": _misc.UD_OPERATOR_CONTRACT,
    "UD_resolver": _misc.UD_RESOLVER,
    "UD_primitive_version": _misc.UD_PRIMITIVE_VERSION,
    "UD_escrow": _misc.UD_ESCROW,
    "HelloWorld": _misc.HELLO_WORLD,
    "Schnorr": _misc.SCHNORR,
    "FirstContract": _misc.FIRST_CONTRACT,
    "TestSender": _misc.TEST_SENDER,
}

# The paper's Sec. 5.2 evaluation: contract → the "reasonable" sharding
# selection informed by expected usage.
EVAL_CONTRACTS: dict[str, tuple[str, ...]] = {
    "FungibleToken": ("Mint", "Transfer", "TransferFrom"),
    "Crowdfunding": ("Donate", "ClaimBack"),
    "NonfungibleToken": ("Mint", "Transfer"),
    "ProofIPFS": ("Register",),
    "UD_registry": ("Bestow", "ConfigureNode", "ConfigureResolver"),
}


def contract_loc(name: str) -> int:
    """Non-blank lines of code of a corpus contract."""
    return sum(1 for line in CORPUS[name].splitlines() if line.strip())
