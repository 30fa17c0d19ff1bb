//! A pack that was not built from the layer it is stepped against is an
//! error, not an out-of-bounds index into (or silent garbage from) the
//! foreign weights — and the rejected call leaves the state untouched.

use reuse_core::conv::{Conv2dPack, Conv2dReuseState};
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_core::ReuseError;
use reuse_nn::{init::Rng64, Activation, Conv2dLayer, LstmCell};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::Conv2dSpec;
use reuse_tensor::{ParallelConfig, Shape};

fn quantizer() -> LinearQuantizer {
    LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap()
}

#[test]
fn conv_pack_of_another_layer_is_rejected() {
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 3,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 0,
    };
    let wider = Conv2dSpec {
        out_channels: 4,
        ..spec
    };
    let layer = Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(21));
    let foreign = Conv2dLayer::random(wider, Activation::Identity, &mut Rng64::new(5));
    let (pack, foreign_pack) = (Conv2dPack::new(&layer), Conv2dPack::new(&foreign));
    let (q, cfg) = (quantizer(), ParallelConfig::serial());
    let in_shape = Shape::d3(2, 6, 6);
    let mut state = Conv2dReuseState::new(&layer, &in_shape).unwrap();
    let frame = vec![0.25f32; in_shape.volume()];
    let mut out = Vec::new();
    // A foreign pack and a foreign layer are both refused.
    for (l, p) in [(&layer, &foreign_pack), (&foreign, &pack)] {
        let err = state
            .execute_into_packed(&cfg, l, p, &q, &frame, &mut out)
            .unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }), "{err}");
    }
    let stats = state
        .execute_into_packed(&cfg, &layer, &pack, &q, &frame, &mut out)
        .unwrap();
    assert!(stats.from_scratch);
}

#[test]
fn lstm_pack_of_another_cell_is_rejected() {
    let cell = LstmCell::random(5, 3, &mut Rng64::new(31));
    let foreign = LstmGatePack::new(&LstmCell::random(5, 4, &mut Rng64::new(2)));
    let (q, cfg) = (quantizer(), ParallelConfig::serial());
    let mut state = LstmReuseState::new_shared(&cell);
    let mut h = Vec::new();
    let err = state
        .step_into_packed(&cfg, &cell, &foreign, &q, &q, &[0.1; 5], &mut h)
        .unwrap_err();
    assert!(matches!(err, ReuseError::InvalidConfig { .. }), "{err}");
    let pack = LstmGatePack::new(&cell);
    let stats = state
        .step_into_packed(&cfg, &cell, &pack, &q, &q, &[0.1; 5], &mut h)
        .unwrap();
    assert!(stats.from_scratch);
}
