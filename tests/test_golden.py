"""Byte-exact pins on traces, state graphs and check verdicts.

Each digest is a sha256 of CLI `simulate` output (text and JSON), of a
dump of every node of a model's state graph: FSM locations, variables,
enabled flags, port statuses (stale ones from the previous iteration
included, since they are part of state identity), queue summary, the
step kind taken out of the node, and its successor, or of CLI `check`
output and library `check_ltl` witness node ids.  Any change to the
engine that alters a trace, a graph, or the statuses ports are left
with shows up here, even when the verdicts built on top stay the same;
any change to the checker's search order shows up as a different
counterexample.

Regenerate a digest only for a deliberate change of semantics, and say
so where the change is recorded.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from de_fixpoint import build_state_graph, check_ltl, initialize, parse_formula, parse_model
from de_fixpoint.cli import main
from de_fixpoint.state import collect_variables, fsm_locations
from de_fixpoint.values import literal_text

import families
from conftest import model_path

# A clock feeding three zero-delay hops into a wrapping counter.
CHAIN3 = """\
format 1

composite Chain {
  var laps = 0
  clock Clock {
    period = 1
    offset = 1
  }
  delay Hop0 {
    delay = 0
  }
  delay Hop1 {
    delay = 0
  }
  delay Hop2 {
    delay = 0
  }
  fsm Count {
    input Sec
    output Lap
    var count = 0
    initial run
    transition run -> run { guard isPresent(Sec) && count < 2 set count = count + 1 }
    transition run -> run { guard isPresent(Sec) && count == 2 output Lap = count set count = 0 }
  }
  setvar SetLaps {
    target = "laps"
  }
  connect Clock.output -> Hop0.input
  connect Hop0.output -> Hop1.input
  connect Hop1.output -> Hop2.input
  connect Hop2.output -> Count.Sec
  connect Count.Lap -> SetLaps.input
}
"""

# Modal actors nested two deep; refinement A of M0 holds M1, B idles.
NESTED2 = """\
format 1

composite Nested {
  var out = 0
  clock Clock {
    period = 1
  }
  modal M0 {
    input Sec
    output Out
    controller Ctrl
    refine a -> A
    refine b -> B
    fsm Ctrl {
      input Sec
      var count = 0
      initial a
      location b
      transition a -> a { guard isPresent(Sec) && count < 2 set count = count + 1 }
      transition a -> b { guard isPresent(Sec) && count == 2 set count = 0 }
      transition b -> b { guard isPresent(Sec) && count < 1 set count = count + 1 }
      transition b -> a { guard isPresent(Sec) && count == 1 set count = 0 }
    }
    composite A {
      input Sec
      output Out
      modal M1 {
        input Sec
        output Out
        controller Ctrl
        refine a -> A
        refine b -> B
        fsm Ctrl {
          input Sec
          var count = 0
          initial a
          location b
          transition a -> a { guard isPresent(Sec) && count < 1 set count = count + 1 }
          transition a -> b { guard isPresent(Sec) && count == 1 set count = 0 }
          transition b -> a { guard isPresent(Sec) }
        }
        composite A {
          input Sec
          output Out
          fsm Leaf {
            input Sec
            output Out
            initial on
            location off
            transition on -> off { guard isPresent(Sec) output Out = 1 }
            transition off -> on { guard isPresent(Sec) output Out = 0 }
          }
          connect parent.Sec -> Leaf.Sec
          connect Leaf.Out -> parent.Out
        }
        composite B {
          input Sec
          output Out
          fsm Idle {
            input Sec
            output Out
            initial idle
            transition idle -> idle { guard isPresent(Sec) output Out = 3 }
          }
          connect parent.Sec -> Idle.Sec
          connect Idle.Out -> parent.Out
        }
      }
      connect parent.Sec -> M1.Sec
      connect M1.Out -> parent.Out
    }
    composite B {
      input Sec
      output Out
      fsm Idle {
        input Sec
        output Out
        initial idle
        transition idle -> idle { guard isPresent(Sec) output Out = 2 }
      }
      connect parent.Sec -> Idle.Sec
      connect Idle.Out -> parent.Out
    }
  }
  setvar SetOut {
    target = "out"
  }
  connect Clock.output -> M0.Sec
  connect M0.Out -> SetOut.input
}
"""


def _crossing(i: int, period: int, offset: int) -> str:
    return f"""\
  clock Clock{i} {{
    period = {period}
    offset = {offset}
  }}
  fsm Car{i} {{
    input Sec
    output Go
    output Lamp
    output Stop
    initial red
    transition red -> ry {{ guard isPresent(Sec) output Stop = 1 }}
    transition ry -> green {{ guard isPresent(Sec) output Lamp = 1 }}
    transition green -> yellow {{ guard isPresent(Sec) output Lamp = 0 }}
    transition yellow -> red {{ guard isPresent(Sec) output Go = 1 }}
  }}
  fsm Ped{i} {{
    input Go
    input Stop
    output Walk
    initial stop
    transition stop -> walk {{ guard isPresent(Go) output Walk = 1 }}
    transition walk -> stop {{ guard isPresent(Stop) output Walk = 0 }}
  }}
  delay GoWire{i} {{
    delay = 0.5
  }}
  delay StopWire{i} {{
    delay = 0.5
  }}
  setvar SetC{i} {{
    target = "C{i}"
  }}
  setvar SetP{i} {{
    target = "P{i}"
  }}
  connect Clock{i}.output -> Car{i}.Sec
  connect Car{i}.Go -> GoWire{i}.input
  connect Car{i}.Stop -> StopWire{i}.input
  connect GoWire{i}.output -> Ped{i}.Go
  connect StopWire{i}.output -> Ped{i}.Stop
  connect Car{i}.Lamp -> SetC{i}.input
  connect Ped{i}.Walk -> SetP{i}.input
"""


# Two pedestrian crossings on coprime clock periods.
CROSSINGS = (
    "format 1\n\ncomposite Crossings {\n"
    "  var C0 = 0\n  var P0 = 0\n  var C1 = 0\n  var P1 = 0\n"
    + _crossing(0, 2, 0)
    + _crossing(1, 3, 1)
    + "}\n"
)

# name -> (model file or inline text, simulate bound, bottom-as-absent)
MODELS = {
    "flat": (model_path("flat_traffic_light.model"), "30", False),
    "hier": (model_path("hierarchical_traffic_light.model"), "45", False),
    "mutant": (model_path("hierarchical_traffic_light_mutant.model"), "45", False),
    "cycle": (model_path("causality_cycle.model"), "6", True),
    "chain3": (CHAIN3, "12", False),
    "nested2": (NESTED2, "20", False),
    "crossings": (CROSSINGS, "20", False),
}

# Recorded before the compiled fixed-point engine replaced the
# rebuild-per-iteration one.
SIMULATE_TEXT = {
    "flat": "a1bbbc01777098456353b9e3c4eca0e98abae522773494e3d9ffef1aecf04587",
    "hier": "653d8fbc262133cc6b49b8dbd80f8b115b90ca7184e5661cc141892084128e39",
    "mutant": "67ec2cf26ba466352b751fe0fe67fbf9e78b0d682282954bda584ba7addf4c14",
    "cycle": "349d1890b4212180fc2d24dad6d830c1b98294bb9f189359afd8a745055f6602",
    "chain3": "cd893f4217c2d5cfcefdf2449be3a52f36b04537e4e82ca5868d870831132926",
    "nested2": "5a318ce6b426a08c272416c356039d1295c8f3376845342c19b445aecac64054",
    "crossings": "0a59beb4177cf37da7f48cb1b53942b7a558f2f555dc02a0de24b8e5d1683d91",
}
SIMULATE_JSON = {
    "flat": "5993964be05d8f7640bd29e3038c7fd6d62f1be1f85b65d7961320194c0088ca",
    "hier": "bb3be1d6b26a42c8efad454ffb621e12e7918f03c1ea52a6af4d9dfbfa140071",
    "mutant": "a4ac040dc0ce19092972a8cb979d742e16f52f80ab380343b7b35b1d8efa94be",
    "cycle": "cf73f181fd5af13e2eb336f016463b42de4bf393c3f32fffed63b22ec9a907e4",
    "chain3": "d7621ec2aebb5794f712325f815530addcd51cc7bb09ec0cf8580381e91d716e",
    "nested2": "c3970a38466ad8d789780707026c3af8d916035686bea8bf4f49ff70ea498d95",
    "crossings": "7e0893496e01e0f4a9a764bd4a2bfd2662d4277fe3688bfd03ec547fad971785",
}
GRAPH = {
    "flat": "5343dfd980fa8f0f1e680c9ba501f159165bc6aee27c5cfaa53d1d179edf7cd7",
    "hier": "e7dd155a70d2d93a029f4ca57bcd7fe589e1c28fe603ca2af18833dae6e8e0d5",
    "mutant": "c56c057aa0e4cda6bf89b0953189563857e5778f5adfa41603c6c8e89056414f",
    "cycle": "b8c444cb6a8df419e7adf61b29864d09e5d3aad23feacf63f76093a9db6d8807",
    "chain3": "cefe8f57a0ca69fe3a11535ca242e7e8a2a3a6980a1663bc37fdc81013f18f54",
    "nested2": "86c25572b5a84ecf1b3de3ffe8343e60cfbaf9afefe87493459c4d1c9aa475f3",
    "crossings": "a7f6f59f1048fbe8fa71e5588cacfaec98bcef78e90d96eaadddfe2cb17c4240",
}


MUTUAL_EXCLUSION = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"

# name -> (model, formula, extra flags, exit code: 0 holds, 1 fails)
CHECKS = {
    "flat-holds": ("flat", "[] <> ('FlatTrafficLight | 'Cyel = 1)", (), 0),
    "flat-fails": ("flat", "<> [] ('FlatTrafficLight | 'Cred = 1)", (), 1),
    "flat-until-holds": ("flat", "<> [] ('FlatTrafficLight | 'Cred = 1)", ("--until", "2"), 0),
    "flat-until-fails": ("flat", "[] <> ('FlatTrafficLight | 'Cyel = 1)", ("--until", "2"), 1),
    "hier-holds": ("hier", MUTUAL_EXCLUSION, (), 0),
    "hier-fails": ("hier", "[] <> 'HierarchicalTrafficLight . 'Decision @ 'Dinit", (), 1),
    "hier-until-fails": (
        "hier",
        "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> <> 'HierarchicalTrafficLight . 'Decision @ 'Normal)",
        ("--until", "18"),
        1,
    ),
    "mutant-holds": ("mutant", "<> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal", (), 0),
    "mutant-fails": ("mutant", MUTUAL_EXCLUSION, (), 1),
    "cycle-holds": ("cycle", "[] ('FeedbackLoop . 'A @ 'S /\\ 'FeedbackLoop . 'B @ 'S)", ("--bottom-as-absent",), 0),
    "cycle-fails": ("cycle", "<> ~ 'FeedbackLoop . 'B @ 'S", ("--bottom-as-absent",), 1),
}

# Recorded before atom truth was computed once per graph (as are the
# witness pins below).
CHECK_TEXT = {
    "cycle-fails": "1286a8823fa9589245bb017f6461a7cb7e686f0bca91ad0454e07bb9d848be3f",
    "cycle-holds": "32ef2b7733764110bff0971aa9b4cd324ba6ef99ce87da1105d4c0793e81f29c",
    "flat-fails": "13285f89d6edf2f3f90feb7eb928bba10b95d8fb9b46a5d4ad44020d8262cc12",
    "flat-holds": "0b5ff1e100b982fc60a5ceb057776e82dcf9e05942dce45be88b6318b75e1815",
    "flat-until-fails": "c68c7b781211e4724d81773d1e61e41abfed75179a364581d501bf37ef066fd7",
    "flat-until-holds": "eec5f551cf46b6ee613de6a0276d708e70004cb9603495f5f8b053c9e2ca4301",
    "hier-fails": "315f661b8f97a9a26e2c308a9ec37670fe70d18d495ed9dc2be24c1434877fcf",
    "hier-holds": "e129082aae9e3b1f04dcebe4dcdeca800dd7fa99067bca652104b253964438b3",
    "hier-until-fails": "df8fd1095d5f8dc23c0258584b27ee9e4cf274bfb3bd7d60e362e9718dad4f73",
    "mutant-fails": "bbf25038cbcbf5ef96cabe2bd6b858fc5991c55d4e0deaf04b3a19238d23e4b6",
    "mutant-holds": "e129082aae9e3b1f04dcebe4dcdeca800dd7fa99067bca652104b253964438b3",
}

# Failing formulas on the mutant graph, all checked against one graph.
WITNESS_FORMULAS = [
    MUTUAL_EXCLUSION,
    "[] 'HierarchicalTrafficLight . 'Decision @ 'Normal",
    "<> [] ('HierarchicalTrafficLight | 'Cred = 1)",
    "[] ('HierarchicalTrafficLight | 'Pgrn = 1 -> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> 'HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))",
    "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> 'HierarchicalTrafficLight | 'Cred = 1)",
    "[] ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1) -> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    "[] ('HierarchicalTrafficLight | 'Pgrn = 1 -> ('HierarchicalTrafficLight | 'Pgrn = 1 U 'HierarchicalTrafficLight | 'Cred = 1))",
]
WITNESS_IDS = [
    "84de96253386a1e1a73a958d18b932aeb3436afdb3f4dc208ae37350cc01a977",
    "44e068b5cda6fba616f17f6278848b7257fd3e9a765dabfb4b96080315fde04b",
    "44e068b5cda6fba616f17f6278848b7257fd3e9a765dabfb4b96080315fde04b",
    "bca3dde9a861cdf37314e1758205a0c8ce43a184b5ac0e9f7c9a6dec6123edda",
    "eeafee41cc7c9f76b0b278ef41422bf75fdd7918b2890cbc643bfaf9e549071e",
    "84de96253386a1e1a73a958d18b932aeb3436afdb3f4dc208ae37350cc01a977",
    "804ea284ccbc5dede7050972036061db6a4fde9b5ffd8467464e2b302a8eaca8",
    "8378390f2e05f9cb1c39714865a87f89881c1f0c9ec23798d340b36431602ffa",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_file(name, tmp_path) -> str:
    source = MODELS[name][0]
    if "\n" not in source:
        return source
    path = tmp_path / f"{name}.model"
    path.write_text(source, encoding="utf-8")
    return str(path)


def _model_text(name) -> str:
    source = MODELS[name][0]
    if "\n" in source:
        return source
    with open(source, encoding="utf-8") as handle:
        return handle.read()


def simulate_output(name, fmt, tmp_path, capsys) -> str:
    _, until, bottom = MODELS[name]
    argv = ["simulate", _model_file(name, tmp_path), "--until", until, "--format", fmt]
    if bottom:
        argv.append("--bottom-as-absent")
    assert main(argv) == 0
    return capsys.readouterr().out


def check_output(name, tmp_path, capsys) -> str:
    model, formula, flags, code = CHECKS[name]
    argv = ["check", _model_file(model, tmp_path), "--formula", formula, *flags]
    assert main(argv) == code
    return capsys.readouterr().out


def witness_ids(graph, text) -> str:
    witness = check_ltl(graph, parse_formula(text)).witness
    return f"prefix={witness.prefix_ids} cycle={witness.cycle_ids}"


def graph_dump(name) -> str:
    bottom = MODELS[name][2]
    return dump(build_state_graph(initialize(parse_model(_model_text(name))), bottom_as_absent=bottom))


def dump(graph) -> str:
    lines = []
    for i, state in enumerate(graph.nodes):
        lines.append(f"node {i} -> {graph.succ[i]} by {json.dumps(graph.kinds[i].json())}")
        lines.append(f"  locations {sorted(fsm_locations(state).items())}")
        for path, variables in sorted(collect_variables(state).items()):
            assigns = ", ".join(f"{k}={literal_text(v)}" for k, v in sorted(variables.items()))
            lines.append(f"  vars {path}: {assigns}")
        network = state.network
        for i in network.preorder:
            ports = " ".join(
                f"{network.keys[pid][1]}/{network.keys[pid][2]}={state.statuses[pid]!r}" for pid in network.port_ids[i]
            )
            live = state.mode.live[i]
            lines.append(f"  {'.'.join(network.paths[i])} enabled={state.mode.enabled[i]} live={live} {ports}")
        lines.append(f"  queue {state.queue.summary()}")
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("DE_FIXPOINT_COLOR", "0")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulate_text_is_pinned(name, tmp_path, capsys):
    assert _sha(simulate_output(name, "text", tmp_path, capsys)) == SIMULATE_TEXT[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulate_json_is_pinned(name, tmp_path, capsys):
    assert _sha(simulate_output(name, "json", tmp_path, capsys)) == SIMULATE_JSON[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_state_graph_is_pinned(name):
    assert _sha(graph_dump(name)) == GRAPH[name]


def test_fixture_graphs_keep_their_documented_sizes():
    sizes = {name: graph_dump(name).count("\nnode ") + 1 for name in ("flat", "hier")}
    assert sizes == {"flat": 25, "hier": 63}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_output_is_pinned(name, tmp_path, capsys):
    assert _sha(check_output(name, tmp_path, capsys)) == CHECK_TEXT[name]


def test_check_witnesses_are_pinned(mutant_graph):
    # One graph serves every check, as in a session of library calls.
    assert [_sha(witness_ids(mutant_graph, text)) for text in WITNESS_FORMULAS] == WITNESS_IDS


# Generated families. ---------------------------------------------------------
#
# Recorded before the engine moved onto flat state, integer time and
# compiled expressions.  The models come from ``families.py`` with fixed
# parameters: the three-crossing lasso has 968 states, the chains cost
# one microstep per hop, and the modals nest one to four levels deep.

# name -> (model text, simulate bound)
GENERATED = {
    "crossings357": (families.crossings((3, 5, 7), 6, 1), "40"),
    **{f"chain{k}": (families.chain(k, 2 + k % 3, k % 3), str(12 + k % 3)) for k in range(2, 10)},
    **{f"modal{d}": (families.modal([2, 3, 4, 2][:d], d % 2), str(25 + d % 2)) for d in range(1, 5)},
}
# name -> (generated model, time bound of its graph)
BOUNDED = {
    "crossings357": ("crossings357", "30"),
    "chain5": ("chain5", "7"),
    "modal3": ("modal3", "11"),
}

GENERATED_TEXT = {
    "chain2": "7a1fd595c9400ef5e5c57197b3c49df77ad4d9314f1c669a189c4568323833e8",
    "chain3": "265f584a99b06bbc7c31f7e2124cfb687c5e6c692ef0f9d020cb58dcbd0ab54c",
    "chain4": "8fe82176b1fa9ce5d31693c8feedc6cb8b2b08a5641d31e90040fab471db3e51",
    "chain5": "9bb37b8ab5fe5e551d7efd2c3e21f5db95b5c99cb4f896de5ebbee7fda4e1fff",
    "chain6": "0a00e8496a3f39280436951c0bf034663434dd74b9463ddb71f85813136cc9bd",
    "chain7": "48e6a1a37041b604a07474319d947486b42fbf8d7073180a15ad07e586ff2d0c",
    "chain8": "c51abbd0c96a5fa50b3bbbf23b9c30d530b5d47fff6e904337d0ef9a99ad370b",
    "chain9": "3e1810ad07b50bb1eade7ba4c18d2f90e71c4f5d346ed24c218486b36d34d271",
    "crossings357": "f4b224dcdb7322763ef3a6d4af2594260dc769cfc687fe995806d59bd766101d",
    "modal1": "f69ec43f17d5f7039badbfe03198cb60fb23b799a61bf1fe5f144e11e91660b2",
    "modal2": "99cafdbab6e0b4a2519f62b5b0e5ba8a08df28aa32857030a6fc536f3ed9a1e6",
    "modal3": "0489d244c50ce634317d0fc8c7fdaa85b1280a805f714bda7a4f3314a5903f4b",
    "modal4": "a993e76485a4a4bab54d758463ca9b60e19295a6f28ac93578d410db6eafbc51",
}
GENERATED_JSON = {
    "chain2": "4124bf6059ad660e4c8a9d00c780e4a6678587ab1f9a1d4eb210d1d61470f92b",
    "chain3": "58ea1fd4c6254f285809d519d0be312ba925f58d202a8f72b7953c60a3e09c28",
    "chain4": "47c3da10fa3ed8b251a071e92b4d7a1740523d08215770d0d001bf2e9c506301",
    "chain5": "392b3294d91f4fe7197d667571756edc9b5c0de76c9319640a7e06d1088e72c9",
    "chain6": "002ccee0c5fe8dfc73cccacc6d33e96d8381050c88d0fa08c646f7b1ea34f002",
    "chain7": "d90ebf18cbd50feeb463bacf17736a5722e608b43d2278492278c23ed512a255",
    "chain8": "b88e2ea4474e48ba90b079b3ab2aff5391ea1b27a7450ce0b6cf242c565f8e6d",
    "chain9": "07901e545a4c0b27bb5d09985d8fb0c29449f390bc4b3e045b2311f9ec73fbc2",
    "crossings357": "113e0e0fb018a76a624f241fd802ccc59bb5bed4f04dbbf1c40655544b6bd19d",
    "modal1": "6ee44ed660bd05c2a039461524b0cd73a6bfb932814dab581c0bb4f2613e2dbc",
    "modal2": "80387aedee0e9f9c1a9fd684adf994e404cca38b44d4892b42ecdedbd0476b43",
    "modal3": "de8e10aceb2beb9b7e1fbcd3791048b7883faaf984b673b785eb28ab9359b0f7",
    "modal4": "466e1f14b8bec6f7823a85b3cd834c86e42b5591327108591e079322682e6be0",
}
GENERATED_GRAPH = {
    "chain2": "d7a7c4ed8f9ebe1357de23a2373a168698419aed50be64c144e8a98fcf6316bf",
    "chain3": "4aea63a3f75cf0f911294093f687e103e666cfb44696072b4b3f63eab83a562f",
    "chain4": "af1cddf967a7f9035f7430fbbea47d66effd5b6ec51c46639e4c54c09ad8beb1",
    "chain5": "71388fc2f9057e7db4a2199552799ee2e6de2b9095416d8c9372e654bcea563f",
    "chain6": "7f3fc6981eb59c04c22703525f80a0b83b1d5fcc7f011a540ea76d8cb9d6c364",
    "chain7": "b03be3ad0b222a81368efb67193fa0ccd10865e4efd88d8b84401770e42e9b1d",
    "chain8": "86998ba01dd5a7708833657d0e14d59215a9a7d71b8404facc9dcec3e241ae99",
    "chain9": "06416121e7e9e3f5c7d13e1afd2706f6c716d80bc34a8a00597f94a8d6b010aa",
    "crossings357": "66339912448e5934ae9ed665b424c64e406e69f8746da5dc856109cdcabbc869",
    "modal1": "b8950319bf16803b873972621c9a30abd6fcb2d206ba3b917060fe2208e7578d",
    "modal2": "77adc0cbdf0809ce6485dd93bf928f81a232e365e2569bae1918b98868daa8d7",
    "modal3": "69a244510a4bce584577845c1c71277abe7438e1aab91cadd48cbc8987b727bd",
    "modal4": "50987cb8f26c8f4f1eb6bfeeeff78bd50214252d7d6cf3558d30269673baa591",
}
BOUNDED_GRAPH = {
    "chain5": "1f3e1e4e2c2731ef529c93edb1327cb009ff79bd2d12c35fcaa02d897b3875fc",
    "crossings357": "9637c2f07d639836ce737acc03c16795241967d09d9cd1c448e4f111abc245e1",
    "modal3": "38bb85e5c9e2490891e839655a453e699e072d9e75a6d702278be58bb122d171",
}


def _cli(argv, code, capsys) -> str:
    assert main(argv) == code
    return capsys.readouterr().out


def _write(text, name, tmp_path) -> str:
    path = tmp_path / f"{name}.model"
    path.write_text(text, encoding="utf-8")
    return str(path)


def generated_simulate(name, fmt, tmp_path, capsys) -> str:
    text, until = GENERATED[name]
    argv = ["simulate", _write(text, name, tmp_path), "--until", until, "--format", fmt]
    return _cli(argv, 0, capsys)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_simulate_text_is_pinned(name, tmp_path, capsys):
    assert _sha(generated_simulate(name, "text", tmp_path, capsys)) == GENERATED_TEXT[name]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_simulate_json_is_pinned(name, tmp_path, capsys):
    assert _sha(generated_simulate(name, "json", tmp_path, capsys)) == GENERATED_JSON[name]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_state_graph_is_pinned(name):
    graph = build_state_graph(initialize(parse_model(GENERATED[name][0])))
    assert _sha(dump(graph)) == GENERATED_GRAPH[name]


def test_three_crossings_make_the_benchmark_lasso():
    graph = build_state_graph(initialize(parse_model(GENERATED["crossings357"][0])))
    assert (len(graph.nodes), graph.cycle_entry()) == (968, 20)


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_bounded_generated_graph_is_pinned(name):
    model, until = BOUNDED[name]
    graph = build_state_graph(initialize(parse_model(GENERATED[model][0])), time_bound=Fraction(until))
    assert _sha(dump(graph)) == BOUNDED_GRAPH[name]


# Bounds off the model's timebase. --------------------------------------------
#
# Times are exact rationals at the edge (``--until``, ``t=``, tick sizes,
# queue summaries), whatever the engine counts in.  A bound between two
# events, on the integer-period fixtures and on a model whose clocks tick
# at thirds, halves and three quarters, must cut the run at the same
# place and print the same times.

RATIONAL = """\
format 1

composite Rational {
  var n = 0
  clock Third {
    period = 1/3
  }
  clock Half {
    period = 0.5
    offset = 1/4
  }
  clock ThreeQuarters {
    period = 0.75
    offset = 1/6
  }
  fsm Mix {
    input A
    input B
    input C
    output Out
    var k = 0
    initial s
    transition s -> t { guard isPresent(A) set k = k + 1 }
    transition t -> u { guard isPresent(B) output Out = k }
    transition u -> s { guard isPresent(C) && k < 3 }
    transition u -> s { guard isPresent(C) && k == 3 set k = 0 }
  }
  delay Hop {
    delay = 0
  }
  setvar SetN {
    target = "n"
  }
  connect Third.output -> Mix.A
  connect Half.output -> Mix.B
  connect ThreeQuarters.output -> Mix.C
  connect Mix.Out -> Hop.input
  connect Hop.output -> SetN.input
}
"""

FLAT_CYEL = "[] <> ('FlatTrafficLight | 'Cyel = 1)"
RATIONAL_N = "[] ~ ('Rational | 'n = 3)"

# name -> (model, arguments after the model file, exit code)
OFF_BASE = {
    "flat-simulate-7/3-text": ("flat", ["simulate", "--until", "7/3"], 0),
    "flat-simulate-7/3-json": ("flat", ["simulate", "--until", "7/3", "--format", "json"], 0),
    "flat-simulate-2.5-text": ("flat", ["simulate", "--until", "2.5"], 0),
    "flat-simulate-2.5-json": ("flat", ["simulate", "--until", "2.5", "--format", "json"], 0),
    "hier-simulate-31/2-text": ("hier", ["simulate", "--until", "31/2"], 0),
    "flat-check-7/3": ("flat", ["check", "--formula", FLAT_CYEL, "--until", "7/3"], 1),
    "flat-check-2.5": ("flat", ["check", "--formula", FLAT_CYEL, "--until", "2.5"], 1),
    "rational-simulate-17/7-text": ("rational", ["simulate", "--until", "17/7"], 0),
    "rational-simulate-17/7-json": ("rational", ["simulate", "--until", "17/7", "--format", "json"], 0),
    "rational-simulate-2.45-text": ("rational", ["simulate", "--until", "2.45"], 0),
    "rational-check": ("rational", ["check", "--formula", RATIONAL_N], 1),
    "rational-check-17/7": ("rational", ["check", "--formula", RATIONAL_N, "--until", "17/7"], 1),
    "rational-search-5/7": ("rational", ["search", "--prop", "'Rational . 'Mix @ 'u", "--until", "5/7"], 0),
}

OFF_BASE_OUTPUT = {
    "flat-check-2.5": "c68c7b781211e4724d81773d1e61e41abfed75179a364581d501bf37ef066fd7",
    "flat-check-7/3": "c68c7b781211e4724d81773d1e61e41abfed75179a364581d501bf37ef066fd7",
    "flat-simulate-2.5-json": "c6b352f79cdd66fafafb0a4d6915a536d3edde5c61c98040dff0310c27c2b78d",
    "flat-simulate-2.5-text": "d49c26806c6e9fef7c1f5894c2a57dcc33720794c3db8b3262f2b046498a6d4b",
    "flat-simulate-7/3-json": "c6b352f79cdd66fafafb0a4d6915a536d3edde5c61c98040dff0310c27c2b78d",
    "flat-simulate-7/3-text": "1f5014cf6dc7aeae21335405e64c0829c42582009a97f00014b1a4dc29e185d4",
    "hier-simulate-31/2-text": "de117e1478ba2c3f23524273955e993f4629e7489a1ae35535a73b530977af0f",
    "rational-check": "b2f8a0440a69966e3ef7067bb1770604709931f520d3fbc704bda08dde851f01",
    "rational-check-17/7": "edc7811bf832b6ff756785c72faf6c22233bec19ab384b19c7f38798fa4b91d1",
    "rational-search-5/7": "0d19544b16e9f8da4582fb09e27fe2c84d03a46696e0d28ebd6aa545041c5233",
    "rational-simulate-17/7-json": "0e0e9dfcfd02d4aa54615136453ca7218d5f45b8e96ccc540b1790774f74ba87",
    "rational-simulate-17/7-text": "904a1939a0d7d7158028c11471dd94489d5b5ef06241ea3a7f2ec085b102cbab",
    "rational-simulate-2.45-text": "a6d69189c65b05da8df22545dad313e414c9d9885ac3a7ada64c1aa938ead3bb",
}


RATIONAL_GRAPH = "d55534857b9df4b3b80f36a99e2032add56fe1df3512c05d2e096a871415ca5c"
RATIONAL_BOUNDED_GRAPH = "962afa372590edcce385889a6a98316a00b55e66402211c8b5050b7b209f15be"

def off_base_output(name, tmp_path, capsys) -> str:
    model, args, code = OFF_BASE[name]
    path = _write(RATIONAL, model, tmp_path) if model == "rational" else MODELS[model][0]
    return _cli([args[0], path, *args[1:]], code, capsys)


@pytest.mark.parametrize("name", sorted(OFF_BASE))
def test_bound_off_the_timebase_is_pinned(name, tmp_path, capsys):
    assert _sha(off_base_output(name, tmp_path, capsys)) == OFF_BASE_OUTPUT[name]


def test_rational_graph_is_pinned():
    graph = build_state_graph(initialize(parse_model(RATIONAL)))
    assert _sha(dump(graph)) == RATIONAL_GRAPH


def test_rational_bounded_graph_is_pinned():
    graph = build_state_graph(initialize(parse_model(RATIONAL)), time_bound=Fraction(17, 7))
    assert _sha(dump(graph)) == RATIONAL_BOUNDED_GRAPH

